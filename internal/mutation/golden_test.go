package mutation

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/generator"
	"repro/internal/translate"
)

// Digests of TEM and TOM over generator seeds 0–299: every mutant's
// translation into each language and every report field. A change to the
// type-graph queries that moves a single preservation or relevance verdict,
// or the number of combinations TEM tries before its search cap, changes
// a digest.
const (
	temGoldenDigest = "f1baf7904f6c5dc8ec0fc9d30774b42a68587f60578d4457bae2eab49af093a3"
	tomGoldenDigest = "c9bcae817f81766951f2bb745704c1dafb8ff832ed74247fe869e6373bcdcc09"
)

func TestTEMGoldenDigest(t *testing.T) {
	h := sha256.New()
	for seed := int64(0); seed < 300; seed++ {
		g := generator.New(generator.DefaultConfig().WithSeed(seed))
		mutant, rep := TypeErasure(g.Generate(), g.Builtins())
		fmt.Fprintf(h, "seed %d: %+v\n", seed, *rep)
		for _, tr := range translate.All() {
			fmt.Fprintf(h, "%s:\n%s\n", tr.Name(), tr.Translate(mutant))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != temGoldenDigest {
		t.Errorf("TEM output over seeds 0–299 changed: digest %s, want %s", got, temGoldenDigest)
	}
}

func TestTOMGoldenDigest(t *testing.T) {
	h := sha256.New()
	for seed := int64(0); seed < 300; seed++ {
		g := generator.New(generator.DefaultConfig().WithSeed(seed))
		mutant, rep := TypeOverwriting(g.Generate(), g.Builtins(), rand.New(rand.NewSource(seed)))
		if mutant == nil {
			fmt.Fprintf(h, "seed %d: no site\n", seed)
			continue
		}
		fmt.Fprintf(h, "seed %d: %s\n", seed, rep)
		for _, tr := range translate.All() {
			fmt.Fprintf(h, "%s:\n%s\n", tr.Name(), tr.Translate(mutant))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != tomGoldenDigest {
		t.Errorf("TOM output over seeds 0–299 changed: digest %s, want %s", got, tomGoldenDigest)
	}
}
