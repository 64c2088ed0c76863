package checker

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"testing"

	"repro/internal/generator"
	"repro/internal/governor"
	"repro/internal/ir"
	"repro/internal/types"
)

// Digests of metered checks over generator seeds 0–299, regular and
// stress programs: every diagnostic, every inferred return type, the fuel
// spent and the bailout. Fuel is the machine-independent currency the
// campaign's exhaustion verdicts are decided in, so a change inside the
// checker or internal/types that moves a single Charge (a skipped
// substitution, an extra unification step) changes a digest even when
// no campaign document notices.
const (
	fuelGoldenDigest      = "1b128c2bae7840691a4cbf6e1664be8bb9ca3e4f3d0b9b0540248b005e846613"
	fuelTightGoldenDigest = "679e25bc6e54f096e850ce4a84efb088fafb71f0358f6a0149eca4f3d687ce09"
)

// fuelTightLimit is small enough that some regular programs and every
// stress shape exhaust it, so the tight digest pins bailout points.
const fuelTightLimit = 1500

// fuelStress shortens the stress chains so the unify storm completes
// under the roomy budget (the default chain length stands in for a hang).
var fuelStress = generator.StressConfig{Every: 1, ChainLength: 6}

func fuelDigest(limit int64) (digest string, bailed int) {
	h := sha256.New()
	for seed := int64(0); seed < 300; seed++ {
		cfg := generator.DefaultConfig().WithSeed(seed)
		g := generator.New(cfg)
		if hashCheck(h, "regular", seed, g.Generate(), g.Builtins(), limit) {
			bailed++
		}
		cfg.Stress = fuelStress
		g = generator.New(cfg)
		if hashCheck(h, "stress", seed, g.GenerateStress(), g.Builtins(), limit) {
			bailed++
		}
	}
	return hex.EncodeToString(h.Sum(nil)), bailed
}

func hashCheck(h hash.Hash, kind string, seed int64, p *ir.Program, bt *types.Builtins, limit int64) bool {
	gov := governor.New(limit, 0)
	res := Check(p, bt, Options{Budget: gov})
	fmt.Fprintf(h, "%s %d: spent %d bailout %v\n", kind, seed, gov.Spent(), res.Bailout)
	for _, d := range res.Diags {
		fmt.Fprintln(h, d)
	}
	names := make([]string, 0, len(res.InferredReturns))
	for n := range res.InferredReturns {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(h, "%s: %s\n", n, res.InferredReturns[n])
	}
	return res.Bailout != nil
}

// TestCheckerFuelGoldenDigest pins the checker's fuel layer by layer:
// under a roomy budget only the deep-nesting shape's depth guard trips.
func TestCheckerFuelGoldenDigest(t *testing.T) {
	got, bailed := fuelDigest(1 << 40)
	t.Logf("%d of 600 checks bailed", bailed)
	if got != fuelGoldenDigest {
		t.Errorf("metered checks over seeds 0–299 changed: digest %s, want %s", got, fuelGoldenDigest)
	}
}

// TestCheckerFuelTightGoldenDigest pins where fuel runs out: the same
// checks under a budget that some of them exhaust.
func TestCheckerFuelTightGoldenDigest(t *testing.T) {
	got, bailed := fuelDigest(fuelTightLimit)
	if bailed == 0 || bailed == 600 {
		t.Fatalf("%d of 600 checks bailed under fuel %d; the tight pass must mix both outcomes", bailed, fuelTightLimit)
	}
	t.Logf("%d of 600 checks bailed", bailed)
	if got != fuelTightGoldenDigest {
		t.Errorf("checks under fuel %d changed: digest %s, want %s", fuelTightLimit, got, fuelTightGoldenDigest)
	}
}
