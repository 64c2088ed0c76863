// Package checker implements the reference type checker for the
// Hephaestus IR. It performs name resolution, subtype checking, and the
// local type inference the IR requires (variable types, diamond
// constructor calls, parameterized-call type arguments, method return
// types, and lambda parameter types).
//
// The checker plays two roles in the reproduction. First, it is the
// correctness oracle backing the program generator's claim of producing
// well-typed programs, and the judge for TOM's claim of producing
// ill-typed ones. Second, it is the "compiler codebase" that the simulated
// javac/kotlinc/groovyc wrap: they run this checker (instrumented with
// coverage probes) and then overlay their seeded bug catalogs.
package checker

import (
	"fmt"

	"repro/internal/governor"
	"repro/internal/ir"
	"repro/internal/types"
)

// MethodSig is a method or function signature viewed from a receiver type,
// with the receiver's type arguments already substituted in.
type MethodSig struct {
	Name       string
	TypeParams []*types.Parameter
	ParamNames []string
	Params     []types.Type
	Ret        types.Type
	// Owner is the declaring class, or nil for top-level functions.
	Owner *ir.ClassDecl
	Decl  *ir.FuncDecl
	// Sigma is the receiver substitution the signature was viewed under
	// (nil, the identity, when the receiver has no type arguments); an
	// inferred return type (Decl.Ret == nil) must be run through it.
	Sigma *types.Substitution
}

// FieldSig is a field viewed from a receiver type, substitution applied.
type FieldSig struct {
	Name    string
	Type    types.Type
	Mutable bool
	Owner   *ir.ClassDecl
}

// Env indexes a program's declarations. It is shared by the checker, the
// type-graph analysis, and the generator's resolution algorithm
// (Algorithm 1), all of which need "which methods/fields does type t
// offer" with receiver substitution applied.
type Env struct {
	Builtins *types.Builtins
	Program  *ir.Program
	// Gov, when non-nil, meters member-lookup substitution: the
	// superclass climbs below re-apply the receiver substitution per
	// level, which is where deeply parameterized hierarchies get
	// expensive. The checker installs its budget here; other consumers
	// (typegraph, generator) leave it nil.
	Gov     *governor.Budget
	classes map[string]*ir.ClassDecl
	funcs   map[string]*ir.FuncDecl
}

// NewEnv builds the declaration index for p.
func NewEnv(p *ir.Program, b *types.Builtins) *Env {
	e := &Env{
		Builtins: b,
		Program:  p,
		classes:  map[string]*ir.ClassDecl{},
		funcs:    map[string]*ir.FuncDecl{},
	}
	for _, d := range p.Decls {
		switch t := d.(type) {
		case *ir.ClassDecl:
			e.classes[t.Name] = t
		case *ir.FuncDecl:
			e.funcs[t.Name] = t
		}
	}
	return e
}

// Class returns the class declaration named name, or nil.
func (e *Env) Class(name string) *ir.ClassDecl { return e.classes[name] }

// Func returns the top-level function named name, or nil.
func (e *Env) Func(name string) *ir.FuncDecl { return e.funcs[name] }

// ClassType returns the declared type of the class named name (a
// *types.Constructor or *types.Simple), or nil when undeclared.
func (e *Env) ClassType(name string) types.Type {
	c := e.classes[name]
	if c == nil {
		return nil
	}
	return c.Type()
}

// receiverSubstitution maps a receiver type (Simple or App) to its class
// declaration and the substitution from the class's type parameters to the
// receiver's type arguments. A receiver without type arguments gets the nil
// (identity) substitution.
func (e *Env) receiverSubstitution(recv types.Type) (*ir.ClassDecl, *types.Substitution) {
	switch r := recv.(type) {
	case *types.Simple:
		return e.classes[r.TypeName], nil
	case *types.App:
		cls := e.classes[r.Ctor.TypeName]
		if cls == nil {
			return nil, nil
		}
		sigma := types.NewSubstitutionCap(len(r.Ctor.Params))
		for i, p := range r.Ctor.Params {
			arg := r.Args[i]
			if proj, ok := arg.(*types.Projection); ok {
				// Approximate a use-site projection by its bound for
				// member lookup (capture conversion).
				arg = proj.Bound
			}
			sigma.Bind(p, arg)
		}
		return cls, sigma
	case *types.Parameter:
		// Members of a type parameter come from its upper bound.
		return e.receiverSubstitution(r.UpperBound())
	}
	return nil, nil
}

// FieldsOf returns the fields accessible on a receiver of type recv,
// walking the superclass chain, with type arguments substituted.
func (e *Env) FieldsOf(recv types.Type) []FieldSig {
	var out []FieldSig
	seen := map[string]bool{}
	cur := recv
	for depth := 0; depth < 32; depth++ {
		cls, sigma := e.receiverSubstitution(cur)
		if cls == nil {
			return out
		}
		for _, f := range cls.Fields {
			if seen[f.Name] {
				continue
			}
			seen[f.Name] = true
			out = append(out, FieldSig{
				Name:    f.Name,
				Type:    sigma.ApplyB(e.Gov, f.Type),
				Mutable: f.Mutable,
				Owner:   cls,
			})
		}
		if cls.Super == nil {
			return out
		}
		cur = sigma.ApplyB(e.Gov, cls.Super.Type)
	}
	return out
}

// FieldOf resolves a single field on recv, or returns a zero FieldSig and
// false.
func (e *Env) FieldOf(recv types.Type, name string) (FieldSig, bool) {
	for _, f := range e.FieldsOf(recv) {
		if f.Name == name {
			return f, true
		}
	}
	return FieldSig{}, false
}

// MethodsOf returns the methods callable on a receiver of type recv,
// walking the superclass chain, with the receiver's type arguments
// substituted into signatures. Method-level type parameters remain free.
func (e *Env) MethodsOf(recv types.Type) []MethodSig {
	var out []MethodSig
	seen := map[string]bool{}
	cur := recv
	for depth := 0; depth < 32; depth++ {
		cls, sigma := e.receiverSubstitution(cur)
		if cls == nil {
			return out
		}
		for _, m := range cls.Methods {
			if seen[m.Name] {
				continue
			}
			seen[m.Name] = true
			out = append(out, e.substituteSig(m, cls, sigma))
		}
		if cls.Super == nil {
			return out
		}
		cur = sigma.ApplyB(e.Gov, cls.Super.Type)
	}
	return out
}

// MethodOf resolves a single method on recv by name (the first candidate
// in subclass-first order; use MethodCandidates when overloads matter).
func (e *Env) MethodOf(recv types.Type, name string) (MethodSig, bool) {
	for _, m := range e.MethodsOf(recv) {
		if m.Name == name {
			return m, true
		}
	}
	return MethodSig{}, false
}

// MethodCandidates returns every method named name callable on recv —
// the overload set the resolution algorithm chooses from. Generated
// programs have unique method names; the resolution mutation (REM)
// introduces decoy overloads to stress this very path.
func (e *Env) MethodCandidates(recv types.Type, name string) []MethodSig {
	var out []MethodSig
	cur := recv
	for depth := 0; depth < 32; depth++ {
		cls, sigma := e.receiverSubstitution(cur)
		if cls == nil {
			return out
		}
		for _, m := range cls.Methods {
			if m.Name == name {
				out = append(out, e.substituteSig(m, cls, sigma))
			}
		}
		if cls.Super == nil {
			return out
		}
		cur = sigma.ApplyB(e.Gov, cls.Super.Type)
	}
	return out
}

// TopLevelSig returns the signature of a top-level function.
func (e *Env) TopLevelSig(name string) (MethodSig, bool) {
	f := e.funcs[name]
	if f == nil {
		return MethodSig{}, false
	}
	return e.substituteSig(f, nil, nil), true
}

// substituteSig projects a FuncDecl into a MethodSig under sigma. A nil
// declared return type is reported as nil; callers that need the inferred
// type consult the checker's results.
func (e *Env) substituteSig(m *ir.FuncDecl, owner *ir.ClassDecl, sigma *types.Substitution) MethodSig {
	sig := MethodSig{
		Name:       m.Name,
		TypeParams: m.TypeParams,
		Owner:      owner,
		Decl:       m,
		Sigma:      sigma,
	}
	for _, p := range m.Params {
		sig.ParamNames = append(sig.ParamNames, p.Name)
		sig.Params = append(sig.Params, sigma.ApplyB(e.Gov, p.Type))
	}
	if m.Ret != nil {
		sig.Ret = sigma.ApplyB(e.Gov, m.Ret)
	}
	return sig
}

// SelfType returns the type of `this` inside cls: the class's constructor
// applied to its own parameters, or its simple type.
func SelfType(cls *ir.ClassDecl) types.Type {
	t := cls.Type()
	if ctor, ok := t.(*types.Constructor); ok {
		args := make([]types.Type, len(ctor.Params))
		for i, p := range ctor.Params {
			args[i] = p
		}
		return ctor.Apply(args...)
	}
	return t
}

// ConstructorParams returns the constructor parameter types of a class
// instantiation: the class's own fields in declaration order, with the
// instantiation substitution applied (Kotlin primary-constructor style). A
// nil sigma leaves the class's own type parameters in place.
func (e *Env) ConstructorParams(cls *ir.ClassDecl, sigma *types.Substitution) []types.Type {
	out := make([]types.Type, len(cls.Fields))
	for i, f := range cls.Fields {
		out[i] = sigma.ApplyB(e.Gov, f.Type)
	}
	return out
}

func (e *Env) String() string {
	return fmt.Sprintf("Env(%d classes, %d functions)", len(e.classes), len(e.funcs))
}
