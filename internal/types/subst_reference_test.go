package types

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/governor"
)

// refSubst is the reference implementation: the substitution as two maps
// keyed by Parameter.ID, kept literal (an ID string built on every Bind
// and Lookup, a whole-map clone under every constructor binder). The tests
// below assert that the slice-backed Substitution agrees with it.
type refSubst struct {
	bindings map[string]Type
	params   map[string]*Parameter
}

func newRefSubst() *refSubst {
	return &refSubst{bindings: map[string]Type{}, params: map[string]*Parameter{}}
}

func (s *refSubst) Bind(p *Parameter, t Type) {
	s.bindings[p.ID()] = t
	s.params[p.ID()] = p
}

func (s *refSubst) Lookup(p *Parameter) (Type, bool) {
	t, ok := s.bindings[p.ID()]
	return t, ok
}

func (s *refSubst) Len() int { return len(s.bindings) }

func (s *refSubst) Domain() []*Parameter {
	ids := make([]string, 0, len(s.params))
	for id := range s.params {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	out := make([]*Parameter, len(ids))
	for i, id := range ids {
		out[i] = s.params[id]
	}
	return out
}

func (s *refSubst) Clone() *refSubst {
	c := newRefSubst()
	for id, t := range s.bindings {
		c.bindings[id] = t
		c.params[id] = s.params[id]
	}
	return c
}

// Merge is the literal map merge, which writes while it ranges and so
// leaves s partly merged, in map order, when it fails. The test merges
// into a copy and keeps it only on success, which is the all-or-nothing
// contract Substitution.Merge documents.
func (s *refSubst) Merge(other *refSubst) bool {
	for id, t := range other.bindings {
		if prev, ok := s.bindings[id]; ok && !prev.Equal(t) {
			return false
		}
		s.bindings[id] = t
		s.params[id] = other.params[id]
	}
	return true
}

func (s *refSubst) String() string {
	parts := make([]string, 0, len(s.bindings))
	for _, p := range s.Domain() {
		parts = append(parts, p.ID()+" ↦ "+s.bindings[p.ID()].String())
	}
	return "[" + strings.Join(parts, ", ") + "]"
}

func (s *refSubst) ApplyB(b *governor.Budget, t Type) Type {
	if t == nil || s == nil || len(s.bindings) == 0 {
		return t
	}
	b.Charge(1)
	b.Enter()
	out := s.applyWalk(b, t)
	b.Exit()
	return out
}

func (s *refSubst) applyWalk(b *governor.Budget, t Type) Type {
	switch tt := t.(type) {
	case *Parameter:
		if bound, ok := s.bindings[tt.ID()]; ok {
			return bound
		}
		return tt
	case *App:
		args := make([]Type, len(tt.Args))
		changed := false
		for i, a := range tt.Args {
			args[i] = s.ApplyB(b, a)
			if args[i] != tt.Args[i] {
				changed = true
			}
		}
		if !changed {
			return tt
		}
		return &App{Ctor: tt.Ctor, Args: args}
	case *Projection:
		nb := s.ApplyB(b, tt.Bound)
		if nb == tt.Bound {
			return tt
		}
		return &Projection{Var: tt.Var, Bound: nb}
	case *Func:
		params := make([]Type, len(tt.Params))
		for i, p := range tt.Params {
			params[i] = s.ApplyB(b, p)
		}
		return &Func{Params: params, Ret: s.ApplyB(b, tt.Ret)}
	case *Intersection:
		ms := make([]Type, len(tt.Members))
		for i, m := range tt.Members {
			ms[i] = s.ApplyB(b, m)
		}
		return &Intersection{Members: ms}
	case *Constructor:
		inner := s.Clone()
		for _, p := range tt.Params {
			delete(inner.bindings, p.ID())
			delete(inner.params, p.ID())
		}
		if tt.Super == nil || len(inner.bindings) == 0 {
			return tt
		}
		return &Constructor{
			TypeName: tt.TypeName,
			Params:   tt.Params,
			Super:    inner.ApplyB(b, tt.Super),
			Final:    tt.Final,
		}
	default:
		return t
	}
}

// substUniverse is the random-test universe. Its parameters include two
// distinct pointers with the ID m.X, and the dot-collision pair A.B.C
// (Owner "A.B" name "C", Owner "A" name "B.C"); its constructors bind
// their own parameters, including S, whose binder is a third m.X pointer
// shadowing the free m.X by ID only.
type substUniverse struct {
	ground []Type
	params []*Parameter
	ctors  []*Constructor
}

func newSubstUniverse() *substUniverse {
	b := NewBuiltins()
	mX := NewParameter("m", "X")
	mX2 := &Parameter{Owner: "m", ParamName: "X", Bound: b.Number}
	mY := NewParameter("m", "Y")
	colOwner := NewParameter("A.B", "C")
	colName := NewParameter("A", "B.C")
	aT := NewParameter("A", "T")
	ctorA := NewConstructor("A", []*Parameter{aT}, nil)
	bT := NewParameter("B", "T")
	ctorB := NewConstructor("B", []*Parameter{bT}, ctorA.Apply(bT))
	kT, kU := NewParameter("K", "T"), NewParameter("K", "U")
	ctorK := NewConstructor("K", []*Parameter{kT, kU},
		ctorA.Apply(&Func{Params: []Type{kT, colName}, Ret: &Intersection{Members: []Type{kU, mX}}}))
	sX := NewParameter("m", "X")
	ctorS := NewConstructor("S", []*Parameter{sX}, ctorK.Apply(sX, &Projection{Var: Covariant, Bound: mY}))
	return &substUniverse{
		ground: []Type{Top{}, Bottom{}, b.Int, b.String, b.Number},
		params: []*Parameter{mX, mX2, mY, colOwner, colName, aT, bT, kT, kU, sX},
		ctors:  []*Constructor{ctorA, ctorB, ctorK, ctorS},
	}
}

func (u *substUniverse) param(r *rand.Rand) *Parameter { return u.params[r.Intn(len(u.params))] }

func (u *substUniverse) random(r *rand.Rand, depth int) Type {
	if depth <= 0 {
		if r.Intn(2) == 0 {
			return u.param(r)
		}
		return u.ground[r.Intn(len(u.ground))]
	}
	switch r.Intn(8) {
	case 0:
		return u.param(r)
	case 1:
		c := u.ctors[r.Intn(len(u.ctors))]
		args := make([]Type, len(c.Params))
		for i := range args {
			args[i] = u.random(r, depth-1)
		}
		return c.Apply(args...)
	case 2:
		v := Covariant
		if r.Intn(2) == 0 {
			v = Contravariant
		}
		return u.ctors[0].Apply(&Projection{Var: v, Bound: u.random(r, depth-1)})
	case 3:
		f := &Func{Ret: u.random(r, depth-1)}
		for i := r.Intn(3); i > 0; i-- {
			f.Params = append(f.Params, u.random(r, depth-1))
		}
		return f
	case 4:
		return &Intersection{Members: []Type{u.random(r, depth-1), u.random(r, depth-1)}}
	case 5:
		return u.ctors[r.Intn(len(u.ctors))]
	default:
		return u.ground[r.Intn(len(u.ground))]
	}
}

// identical is structural equality that also requires the very same
// *Parameter and *Constructor pointers, so it tells apart results that
// Equal (which compares parameters by ID) would not.
func identical(a, b Type) bool {
	switch x := a.(type) {
	case nil:
		return b == nil
	case *Parameter:
		return a == b
	case *App:
		y, ok := b.(*App)
		return ok && x.Ctor == y.Ctor && identicalAll(x.Args, y.Args)
	case *Projection:
		y, ok := b.(*Projection)
		return ok && x.Var == y.Var && identical(x.Bound, y.Bound)
	case *Func:
		y, ok := b.(*Func)
		return ok && identicalAll(x.Params, y.Params) && identical(x.Ret, y.Ret)
	case *Intersection:
		y, ok := b.(*Intersection)
		return ok && identicalAll(x.Members, y.Members)
	case *Constructor:
		y, ok := b.(*Constructor)
		if !ok || x.TypeName != y.TypeName || x.Final != y.Final || len(x.Params) != len(y.Params) {
			return false
		}
		for i := range x.Params {
			if x.Params[i] != y.Params[i] {
				return false
			}
		}
		return identical(x.Super, y.Super)
	default:
		return a.Equal(b)
	}
}

func identicalAll(xs, ys []Type) bool {
	if len(xs) != len(ys) {
		return false
	}
	for i := range xs {
		if !identical(xs[i], ys[i]) {
			return false
		}
	}
	return true
}

// substPair is a Substitution and the reference it must agree with.
type substPair struct {
	s   *Substitution
	ref *refSubst
}

func (p substPair) check(t *testing.T, seed int64, step, j int) {
	t.Helper()
	where := fmt.Sprintf("seed %d step %d substitution %d", seed, step, j)
	if p.s.Len() != p.ref.Len() || p.s.IsEmpty() != (p.ref.Len() == 0) {
		t.Fatalf("%s: Len %d, reference %d", where, p.s.Len(), p.ref.Len())
	}
	got, want := p.s.Domain(), p.ref.Domain()
	if len(got) != len(want) {
		t.Fatalf("%s: Domain has %d parameters, reference %d", where, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: Domain[%d] = %p (%s), reference %p (%s)", where, i, got[i], got[i].ID(), want[i], want[i].ID())
		}
		gt, _ := p.s.Lookup(got[i])
		wt, _ := p.ref.Lookup(want[i])
		if !identical(gt, wt) {
			t.Fatalf("%s: binding of %s = %s, reference %s", where, got[i].ID(), gt, wt)
		}
	}
	if p.s.String() != p.ref.String() {
		t.Fatalf("%s: String %s, reference %s", where, p.s, p.ref)
	}
}

// TestSubstitutionMatchesReference drives the Substitution and the map
// reference through the same seeded random sequences of Bind, Lookup,
// Len, Domain, Clone, Merge, Apply and metered ApplyB, and requires equal
// results and equal fuel after every metered application.
func TestSubstitutionMatchesReference(t *testing.T) {
	u := newSubstUniverse()
	for seed := int64(0); seed < 400; seed++ {
		r := rand.New(rand.NewSource(seed))
		pairs := []substPair{{NewSubstitution(), newRefSubst()}}
		for step := 0; step < 60; step++ {
			i := r.Intn(len(pairs))
			p := pairs[i]
			switch op := r.Intn(10); op {
			case 0, 1, 2:
				x, ty := u.param(r), u.random(r, 2)
				p.s.Bind(x, ty)
				p.ref.Bind(x, ty)
			case 3:
				x := u.param(r)
				gt, gok := p.s.Lookup(x)
				wt, wok := p.ref.Lookup(x)
				if gok != wok || !identical(gt, wt) {
					t.Fatalf("seed %d step %d: Lookup(%s) = %s, %v; reference %s, %v", seed, step, x.ID(), gt, gok, wt, wok)
				}
			case 4:
				if len(pairs) < 4 {
					pairs = append(pairs, substPair{p.s.Clone(), p.ref.Clone()})
				}
			case 5:
				o := pairs[r.Intn(len(pairs))]
				merged := p.ref.Clone()
				want := merged.Merge(o.ref)
				if want {
					pairs[i].ref = merged
				}
				if got := p.s.Merge(o.s); got != want {
					t.Fatalf("seed %d step %d: Merge = %v, reference %v", seed, step, got, want)
				}
			case 6, 7:
				ty := u.random(r, 3)
				if got, want := p.s.Apply(ty), p.ref.ApplyB(nil, ty); !identical(got, want) || (got == ty) != (want == ty) {
					t.Fatalf("seed %d step %d: %s.Apply(%s) = %s, reference %s", seed, step, p.ref, ty, got, want)
				}
			default:
				ty := u.random(r, 3)
				gb, wb := governor.New(0, 0), governor.New(0, 0)
				got, want := p.s.ApplyB(gb, ty), p.ref.ApplyB(wb, ty)
				if !identical(got, want) || (got == ty) != (want == ty) {
					t.Fatalf("seed %d step %d: %s.ApplyB(%s) = %s, reference %s", seed, step, p.ref, ty, got, want)
				}
				if gb.Spent() != wb.Spent() {
					t.Fatalf("seed %d step %d: %s.ApplyB(%s) spent %d fuel, reference %d", seed, step, p.ref, ty, gb.Spent(), wb.Spent())
				}
			}
			for j, q := range pairs {
				q.check(t, seed, step, j)
			}
		}
	}
}

// TestParamIdentityMatchesID checks sameParam and compareID against the
// ID strings they avoid building, over owners and names that produce dot
// collisions, prefixes and empty parts.
func TestParamIdentityMatchesID(t *testing.T) {
	parts := []string{"", ".", "A", "A.", ".B", "A.B", "AB", "B", "B.C", "C", "A.B.C", "Ab"}
	var ps []*Parameter
	for _, o := range parts {
		for _, n := range parts {
			ps = append(ps, NewParameter(o, n))
		}
	}
	for _, p := range ps {
		for _, q := range ps {
			if got, want := sameParam(p, q), p.ID() == q.ID(); got != want {
				t.Errorf("sameParam(%q.%q, %q.%q) = %v, want %v", p.Owner, p.ParamName, q.Owner, q.ParamName, got, want)
			}
			if got, want := compareID(p, q), strings.Compare(p.ID(), q.ID()); got != want {
				t.Errorf("compareID(%q.%q, %q.%q) = %d, want %d", p.Owner, p.ParamName, q.Owner, q.ParamName, got, want)
			}
		}
	}
}
