// Package types implements the type algebra of the Hephaestus IR
// (PLDI 2022, "Finding Typing Compiler Bugs", Figure 4b).
//
// A type is one of:
//
//   - ⊤ (Top) and ⊥ (Bottom), the extremal types,
//   - a regular (nominal) type T : t labelled with a name and a supertype,
//   - a type parameter φ : t with an upper bound,
//   - a type constructor Λα.t introducing type parameters,
//   - a type application (Λα.t) t̄ instantiating a constructor, or
//   - a function type (for lambdas and method references).
//
// Go has no sum types, so Type is a sealed interface: every variant embeds
// the unexported marker method and consumers dispatch with exhaustive type
// switches. Identity of type parameters is by qualified name (owner.name),
// which the generator keeps globally unique.
package types

import (
	"cmp"
	"fmt"
	"strings"
)

// Variance describes how a type parameter or use-site projection relates to
// subtyping of the enclosing type application.
type Variance int

// The three variances of the Java/Kotlin generics framework. Invariant is
// Java's default; Covariant corresponds to Kotlin's `out` (Java's
// `? extends`), Contravariant to `in` (`? super`).
const (
	Invariant Variance = iota
	Covariant
	Contravariant
)

func (v Variance) String() string {
	switch v {
	case Covariant:
		return "out"
	case Contravariant:
		return "in"
	default:
		return ""
	}
}

// Type is the sealed interface implemented by every IR type.
type Type interface {
	// Name returns the bare nominal name of the type ("A", "Int", "Any").
	Name() string
	// String returns the fully rendered form ("A<B<Int>, out String>").
	String() string
	// Equal reports structural equality.
	Equal(Type) bool

	sealed()
}

// Top is the maximal type ⊤ (Object in Java, Any in Kotlin).
type Top struct{}

// Bottom is the minimal type ⊥ (Nothing in Kotlin). It is a subtype of
// every type; constant null values are typed as Bottom.
type Bottom struct{}

func (Top) Name() string    { return "Any" }
func (Bottom) Name() string { return "Nothing" }

func (Top) String() string    { return "Any" }
func (Bottom) String() string { return "Nothing" }

func (Top) Equal(o Type) bool    { _, ok := o.(Top); return ok }
func (Bottom) Equal(o Type) bool { _, ok := o.(Bottom); return ok }

func (Top) sealed()    {}
func (Bottom) sealed() {}

// Simple is a regular nominal type T : t (Fig. 4b) with a name and a
// declared supertype. Built-in ground types (Int, String, ...) are Simple
// types whose Builtin flag is set.
type Simple struct {
	TypeName string
	// Super is the declared supertype; nil means ⊤.
	Super Type
	// Builtin marks language-provided types so translators can map them.
	Builtin bool
	// Sealed (non-open) types cannot be extended; mirrors Kotlin's default.
	Final bool

	fp fpBox
}

// NewSimple returns a nominal type with the given name and supertype
// (nil super means ⊤).
func NewSimple(name string, super Type) *Simple {
	return &Simple{TypeName: name, Super: super}
}

func (s *Simple) Name() string   { return s.TypeName }
func (s *Simple) String() string { return s.TypeName }

func (s *Simple) Equal(o Type) bool {
	os, ok := o.(*Simple)
	return ok && os.TypeName == s.TypeName
}

func (*Simple) sealed() {}

// Parameter is a type parameter φ : t with an upper bound (Fig. 4b).
// Owner qualifies the parameter ("A" for class A<T>, "m" for fun <T> m),
// making IDs unique program-wide.
type Parameter struct {
	Owner     string
	ParamName string
	// Bound is the declared upper bound; nil means ⊤.
	Bound Type
	// Var is the declaration-site variance (Kotlin `out T` / `in T`).
	Var Variance

	fp fpBox
}

// NewParameter returns an unbounded, invariant type parameter.
func NewParameter(owner, name string) *Parameter {
	return &Parameter{Owner: owner, ParamName: name}
}

// ID returns the program-wide unique identity of the parameter.
func (p *Parameter) ID() string { return p.Owner + "." + p.ParamName }

func (p *Parameter) Name() string { return p.ParamName }

func (p *Parameter) String() string {
	if p.Bound == nil {
		return p.ParamName
	}
	return p.ParamName + ": " + p.Bound.String()
}

func (p *Parameter) Equal(o Type) bool {
	op, ok := o.(*Parameter)
	return ok && sameParam(op, p)
}

// sameParam reports p.ID() == q.ID() without building either ID, so
// parameter identity costs no allocation. Like the IDs it also holds
// across the dot collision (Owner "A.B" name "C" is Owner "A" name "B.C").
func sameParam(p, q *Parameter) bool {
	if p == q {
		return true
	}
	if len(p.Owner)+len(p.ParamName) != len(q.Owner)+len(q.ParamName) {
		return false
	}
	if len(p.Owner) == len(q.Owner) {
		return p.Owner == q.Owner && p.ParamName == q.ParamName
	}
	return compareID(p, q) == 0
}

// compareID orders parameters as strings.Compare(p.ID(), q.ID()) does,
// without building either ID.
func compareID(p, q *Parameter) int {
	if len(p.Owner) == len(q.Owner) {
		if c := strings.Compare(p.Owner, q.Owner); c != 0 {
			return c
		}
		return strings.Compare(p.ParamName, q.ParamName)
	}
	n, m := len(p.Owner)+1+len(p.ParamName), len(q.Owner)+1+len(q.ParamName)
	for i := 0; i < n && i < m; i++ {
		if a, b := idByte(p, i), idByte(q, i); a != b {
			if a < b {
				return -1
			}
			return 1
		}
	}
	return cmp.Compare(n, m)
}

// idByte returns p.ID()[i].
func idByte(p *Parameter, i int) byte {
	switch {
	case i < len(p.Owner):
		return p.Owner[i]
	case i == len(p.Owner):
		return '.'
	default:
		return p.ParamName[i-len(p.Owner)-1]
	}
}

// hasParam reports whether ps contains a parameter with p's ID.
func hasParam(ps []*Parameter, p *Parameter) bool {
	for _, q := range ps {
		if sameParam(q, p) {
			return true
		}
	}
	return false
}

// UpperBound returns the declared bound, or ⊤ when unbounded.
func (p *Parameter) UpperBound() Type {
	if p.Bound == nil {
		return Top{}
	}
	return p.Bound
}

func (*Parameter) sealed() {}

// Constructor is a type constructor Λα.t: a named, parameterized type
// awaiting instantiation (e.g. the class A<T> before any use A<Int>).
// Super may mention the constructor's own parameters, as in
// class B<T> : A<T>.
type Constructor struct {
	TypeName string
	Params   []*Parameter
	// Super is the declared supertype (may reference Params); nil means ⊤.
	Super Type
	Final bool

	fp fpBox
}

// NewConstructor returns a type constructor over the given parameters.
func NewConstructor(name string, params []*Parameter, super Type) *Constructor {
	return &Constructor{TypeName: name, Params: params, Super: super}
}

func (c *Constructor) Name() string { return c.TypeName }

func (c *Constructor) String() string {
	names := make([]string, len(c.Params))
	for i, p := range c.Params {
		names[i] = p.String()
	}
	return c.TypeName + "<" + strings.Join(names, ", ") + ">"
}

func (c *Constructor) Equal(o Type) bool {
	oc, ok := o.(*Constructor)
	return ok && oc.TypeName == c.TypeName && len(oc.Params) == len(c.Params)
}

func (*Constructor) sealed() {}

// Apply instantiates the constructor with the given type arguments,
// yielding a type application (Λα.t) t̄. It panics on arity mismatch, which
// is always a programming error in the generator or checker.
func (c *Constructor) Apply(args ...Type) *App {
	if len(args) != len(c.Params) {
		panic(fmt.Sprintf("types: %s instantiated with %d arguments, wants %d",
			c.TypeName, len(args), len(c.Params)))
	}
	return &App{Ctor: c, Args: args}
}

// App is a type application (Λα.t) t̄ — a parameterized type such as
// A<String>. Arguments may be Projections for use-site variance.
type App struct {
	Ctor *Constructor
	Args []Type

	fp fpBox
}

func (a *App) Name() string { return a.Ctor.TypeName }

func (a *App) String() string {
	parts := make([]string, len(a.Args))
	for i, t := range a.Args {
		parts[i] = t.String()
	}
	return a.Ctor.TypeName + "<" + strings.Join(parts, ", ") + ">"
}

func (a *App) Equal(o Type) bool {
	oa, ok := o.(*App)
	if !ok || !oa.Ctor.Equal(a.Ctor) || len(oa.Args) != len(a.Args) {
		return false
	}
	for i := range a.Args {
		if !a.Args[i].Equal(oa.Args[i]) {
			return false
		}
	}
	return true
}

func (*App) sealed() {}

// Projection is a use-site variance annotation on a type-application
// argument: `out Number` (? extends Number) or `in Number` (? super
// Number). A projection is not a first-class type; it only appears as an
// App argument. Var is never Invariant.
type Projection struct {
	Var   Variance
	Bound Type
}

func (p *Projection) Name() string   { return p.Bound.Name() }
func (p *Projection) String() string { return p.Var.String() + " " + p.Bound.String() }

func (p *Projection) Equal(o Type) bool {
	op, ok := o.(*Projection)
	return ok && op.Var == p.Var && op.Bound.Equal(p.Bound)
}

func (*Projection) sealed() {}

// Func is a function type (t1, ..., tn) -> r for lambdas and method
// references.
type Func struct {
	Params []Type
	Ret    Type
}

func (f *Func) Name() string { return "Function" + fmt.Sprint(len(f.Params)) }

func (f *Func) String() string {
	parts := make([]string, len(f.Params))
	for i, t := range f.Params {
		parts[i] = t.String()
	}
	return "(" + strings.Join(parts, ", ") + ") -> " + f.Ret.String()
}

func (f *Func) Equal(o Type) bool {
	of, ok := o.(*Func)
	if !ok || len(of.Params) != len(f.Params) || !of.Ret.Equal(f.Ret) {
		return false
	}
	for i := range f.Params {
		if !f.Params[i].Equal(of.Params[i]) {
			return false
		}
	}
	return true
}

func (*Func) sealed() {}

// Intersection is an intersection type t1 & t2 & ... Compilers form these
// internally, e.g. when computing the least upper bound of branches of a
// conditional (the paper's KT-44082 revolves around approximating one).
type Intersection struct {
	Members []Type
}

func (x *Intersection) Name() string { return "Intersection" }

func (x *Intersection) String() string {
	parts := make([]string, len(x.Members))
	for i, t := range x.Members {
		parts[i] = t.String()
	}
	return strings.Join(parts, " & ")
}

func (x *Intersection) Equal(o Type) bool {
	ox, ok := o.(*Intersection)
	if !ok || len(ox.Members) != len(x.Members) {
		return false
	}
	for i := range x.Members {
		if !x.Members[i].Equal(ox.Members[i]) {
			return false
		}
	}
	return true
}

func (*Intersection) sealed() {}

// IsParameterized reports whether t is a type application or a constructor.
func IsParameterized(t Type) bool {
	switch t.(type) {
	case *App, *Constructor:
		return true
	}
	return false
}

// ContainsParameter reports whether the given type parameter occurs
// anywhere inside t.
func ContainsParameter(t Type, p *Parameter) bool {
	switch tt := t.(type) {
	case *Parameter:
		return sameParam(tt, p)
	case *App:
		for _, a := range tt.Args {
			if ContainsParameter(a, p) {
				return true
			}
		}
	case *Projection:
		return ContainsParameter(tt.Bound, p)
	case *Func:
		for _, a := range tt.Params {
			if ContainsParameter(a, p) {
				return true
			}
		}
		return ContainsParameter(tt.Ret, p)
	case *Intersection:
		for _, m := range tt.Members {
			if ContainsParameter(m, p) {
				return true
			}
		}
	}
	return false
}

// HasFreeParameters reports whether any type parameter occurs in t. It is
// the allocation-free fast path for the very common "is t ground?" check,
// short-circuiting on the first parameter instead of collecting them all
// like FreeParameters.
func HasFreeParameters(t Type) bool {
	switch tt := t.(type) {
	case *Parameter:
		return true
	case *App:
		for _, a := range tt.Args {
			if HasFreeParameters(a) {
				return true
			}
		}
	case *Projection:
		return HasFreeParameters(tt.Bound)
	case *Func:
		for _, a := range tt.Params {
			if HasFreeParameters(a) {
				return true
			}
		}
		return HasFreeParameters(tt.Ret)
	case *Intersection:
		for _, m := range tt.Members {
			if HasFreeParameters(m) {
				return true
			}
		}
	}
	return false
}

// FreeParameters returns the type parameters occurring in t, in first-use
// order and without duplicates.
func FreeParameters(t Type) []*Parameter {
	var out []*Parameter
	var walk func(Type)
	walk = func(t Type) {
		switch tt := t.(type) {
		case *Parameter:
			if !hasParam(out, tt) {
				out = append(out, tt)
			}
		case *App:
			for _, a := range tt.Args {
				walk(a)
			}
		case *Projection:
			walk(tt.Bound)
		case *Func:
			for _, a := range tt.Params {
				walk(a)
			}
			walk(tt.Ret)
		case *Intersection:
			for _, m := range tt.Members {
				walk(m)
			}
		}
	}
	walk(t)
	return out
}
