package mutation

import (
	"testing"

	"repro/internal/generator"
	"repro/internal/ir"
	"repro/internal/types"
)

// TestTEMAllocBudget gates TEM's cost in a deterministic currency: on the
// component benchmark's TEM fixtures (default-config programs of
// generator seeds 0–7), one TypeErasure allocates at most 15,000 objects
// on average.
func TestTEMAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const budget = 15000
	progs := make([]*ir.Program, 8)
	for i := range progs {
		progs[i] = generator.New(generator.DefaultConfig().WithSeed(int64(i))).Generate()
	}
	bt := types.NewBuiltins()
	perRun := testing.AllocsPerRun(2, func() {
		for _, p := range progs {
			TypeErasure(p, bt)
		}
	})
	if per := perRun / float64(len(progs)); per > budget {
		t.Errorf("TypeErasure allocates %.0f objects per program, budget %d", per, budget)
	}
}
