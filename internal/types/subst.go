package types

import (
	"slices"
	"strings"

	"repro/internal/governor"
)

// Substitution is a finite map [α ↦ t] from type parameters to types
// (Definition 3.1), keyed by parameter identity (Parameter.ID). It is a
// short slice of bindings searched linearly: substitutions bind a handful
// of parameters, and a scan comparing parameters piecewise (sameParam)
// allocates nothing, where a map keyed by ID would build the ID string on
// every Bind and Lookup. A nil *Substitution reads as the empty one.
type Substitution struct {
	binds []binding
}

// binding is one [p ↦ t]. p is the *Parameter of the latest Bind of its
// ID, so Domain enumerates the parameters callers last bound.
type binding struct {
	p *Parameter
	t Type
}

// NewSubstitution returns an empty substitution.
func NewSubstitution() *Substitution { return &Substitution{} }

// NewSubstitutionCap returns an empty substitution with room for n
// bindings, so binding a constructor's n parameters allocates once.
func NewSubstitutionCap(n int) *Substitution {
	return &Substitution{binds: make([]binding, 0, n)}
}

// Bind records [p ↦ t], replacing any binding of a parameter with p's ID
// (callers that need conflict detection use Merge).
func (s *Substitution) Bind(p *Parameter, t Type) {
	for i := range s.binds {
		if sameParam(s.binds[i].p, p) {
			s.binds[i] = binding{p, t}
			return
		}
	}
	s.binds = append(s.binds, binding{p, t})
}

// Lookup returns the binding for p, if any.
func (s *Substitution) Lookup(p *Parameter) (Type, bool) {
	if s != nil {
		for _, bd := range s.binds {
			if sameParam(bd.p, p) {
				return bd.t, true
			}
		}
	}
	return nil, false
}

// Len returns the number of bound parameters.
func (s *Substitution) Len() int {
	if s == nil {
		return 0
	}
	return len(s.binds)
}

// IsEmpty reports whether no parameter is bound.
func (s *Substitution) IsEmpty() bool { return s.Len() == 0 }

// Domain returns the bound parameters in deterministic (ID-sorted) order.
func (s *Substitution) Domain() []*Parameter {
	out := make([]*Parameter, s.Len())
	for i := range out {
		out[i] = s.binds[i].p
	}
	slices.SortFunc(out, compareID)
	return out
}

// Clone returns an independent copy of the substitution.
func (s *Substitution) Clone() *Substitution {
	if s == nil {
		return NewSubstitution()
	}
	return &Substitution{binds: slices.Clone(s.binds)}
}

// Merge adds other's bindings to s. It returns false on a conflicting
// binding (the same parameter bound to unequal types), and a failed Merge
// leaves s unchanged.
func (s *Substitution) Merge(other *Substitution) bool {
	if other == nil {
		return true
	}
	for _, bd := range other.binds {
		if prev, ok := s.Lookup(bd.p); ok && !prev.Equal(bd.t) {
			return false
		}
	}
	for _, bd := range other.binds {
		s.Bind(bd.p, bd.t)
	}
	return true
}

// Apply performs the substitution on t, replacing every occurrence of a
// bound type parameter (Definition 3.1). Unbound parameters are left
// intact. Application recurses through applications, projections, function
// types, intersections, and parameter bounds.
func (s *Substitution) Apply(t Type) Type { return s.ApplyB(nil, t) }

// ApplyB is Apply metered by a governor budget (nil = unmetered), charging
// one step per visited type node. Substitution is where pathological
// programs manufacture exponential work — a climb through
// `class E<T> : D<Pair<T,T>>` doubles the type's size per level — so
// metering per node (rather than per call) is what makes fuel exhaustion
// track the real cost.
func (s *Substitution) ApplyB(b *governor.Budget, t Type) Type {
	if t == nil || s.IsEmpty() {
		return t
	}
	b.Charge(1)
	b.Enter()
	out := s.applyWalk(b, t)
	b.Exit()
	return out
}

func (s *Substitution) applyWalk(b *governor.Budget, t Type) Type {
	switch tt := t.(type) {
	case *Parameter:
		if bound, ok := s.Lookup(tt); ok {
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
		// Substituting under a binder: Definition 3.1 substitutes only
		// free parameters, so skip the constructor's own parameters.
		if tt.Super == nil {
			return tt
		}
		inner := s.without(tt.Params)
		if inner == nil {
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

// without returns s minus the bindings of params: s itself when it binds
// none of them, nil when it binds nothing else.
func (s *Substitution) without(params []*Parameter) *Substitution {
	shadowed := 0
	for _, bd := range s.binds {
		if hasParam(params, bd.p) {
			shadowed++
		}
	}
	switch shadowed {
	case 0:
		return s
	case len(s.binds):
		return nil
	}
	kept := make([]binding, 0, len(s.binds)-shadowed)
	for _, bd := range s.binds {
		if !hasParam(params, bd.p) {
			kept = append(kept, bd)
		}
	}
	return &Substitution{binds: kept}
}

func (s *Substitution) String() string {
	parts := make([]string, 0, s.Len())
	for _, p := range s.Domain() {
		t, _ := s.Lookup(p)
		parts = append(parts, p.ID()+" ↦ "+t.String())
	}
	return "[" + strings.Join(parts, ", ") + "]"
}
