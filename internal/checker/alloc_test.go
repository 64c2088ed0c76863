package checker

import (
	"testing"

	"repro/internal/generator"
	"repro/internal/ir"
	"repro/internal/types"
)

// TestTypeCheckAllocBudget gates the checker's cost in a deterministic
// currency: on the component benchmark's TypeCheck fixtures
// (default-config programs of generator seeds 0–7), one Check allocates
// at most 1,100 objects on average.
func TestTypeCheckAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const budget = 1100
	progs := make([]*ir.Program, 8)
	for i := range progs {
		progs[i] = generator.New(generator.DefaultConfig().WithSeed(int64(i))).Generate()
	}
	bt := types.NewBuiltins()
	perRun := testing.AllocsPerRun(5, func() {
		for _, p := range progs {
			Check(p, bt, Options{})
		}
	})
	if per := perRun / float64(len(progs)); per > budget {
		t.Errorf("Check allocates %.0f objects per program, budget %d", per, budget)
	}
}
