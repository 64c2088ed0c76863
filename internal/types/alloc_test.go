package types

import "testing"

// TestSubstitutionZeroAlloc pins the substitution's hot paths at zero
// allocations: looking a parameter up, applying the substitution to a
// bound parameter and rebinding one compare parameters piecewise and
// build no ID string.
func TestSubstitutionZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	b := NewBuiltins()
	p, q := NewParameter("m", "T"), NewParameter("A", "T")
	sigma := NewSubstitution()
	sigma.Bind(q, b.String)
	sigma.Bind(p, b.Int)
	probe := NewParameter("m", "T") // same ID, different pointer
	if n := testing.AllocsPerRun(100, func() { sigma.Lookup(probe) }); n != 0 {
		t.Errorf("Lookup allocates %.0f objects, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { sigma.Apply(probe) }); n != 0 {
		t.Errorf("Apply of a bound parameter allocates %.0f objects, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { sigma.Bind(probe, b.Long) }); n != 0 {
		t.Errorf("rebinding a parameter allocates %.0f objects, want 0", n)
	}
}

// TestUnifyAllocBudget gates unification in a deterministic currency: on
// the component benchmark's Unify pair, B<A<m.T>> against A<A<Long>>
// (class B<T> : A<T>), one Unify allocates at most 11 objects.
func TestUnifyAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	const budget = 11
	b := NewBuiltins()
	aT := NewParameter("A", "T")
	ctorA := NewConstructor("A", []*Parameter{aT}, nil)
	bT := NewParameter("B", "T")
	ctorB := NewConstructor("B", []*Parameter{bT}, ctorA.Apply(bT))
	left := ctorB.Apply(ctorA.Apply(NewParameter("m", "T")))
	right := ctorA.Apply(ctorA.Apply(b.Long))
	if Unify(left, right) == nil {
		t.Fatal("fixture: B<A<T>> must unify with A<A<Long>>")
	}
	if n := testing.AllocsPerRun(100, func() { Unify(left, right) }); n > budget {
		t.Errorf("Unify allocates %.0f objects, budget %d", n, budget)
	}
}
