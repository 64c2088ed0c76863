package checker

import (
	"fmt"

	"repro/internal/coverage"
	"repro/internal/governor"
	"repro/internal/ir"
	"repro/internal/types"
)

// Options configures a check run.
type Options struct {
	// Probes receives coverage events; nil means no instrumentation.
	Probes coverage.Recorder
	// RecordTypes fills Result.ExprTypes with the static type of every
	// expression — the getType(e) oracle the type-graph analysis uses.
	RecordTypes bool
	// Budget, when non-nil, meters the check: every expression and every
	// recursive relation in internal/types charges it, and a guarded
	// budget aborts the walk by panicking with a *governor.Bailout that
	// Check recovers and records on Result.Bailout. Charge points also
	// poll the budget's bound context, so a cancelled compile exits
	// cooperatively instead of running to completion.
	Budget *governor.Budget
}

// Check type-checks a whole program against the builtin universe b and
// returns the diagnostics. It is deterministic and side-effect free.
//
// When Options.Budget trips (fuel, depth, or cancellation), the in-flight
// walk is abandoned via a *governor.Bailout panic that is recovered here —
// never escaping to callers, so the harness sandbox's recover (which
// classifies panics as compiler crashes) cannot see it — and recorded on
// Result.Bailout. A bailed result's diagnostics are partial; callers must
// check Bailout before trusting OK().
func Check(p *ir.Program, b *types.Builtins, opts Options) (res *Result) {
	probes := opts.Probes
	if probes == nil {
		probes = coverage.Nop{}
	}
	_, nop := probes.(coverage.Nop)
	c := &checker{
		env:        NewEnv(p, b),
		gov:        opts.Budget,
		probes:     probes,
		probesLive: !nop,
		result:     &Result{InferredReturns: map[string]string{}},
		rets:       map[*ir.FuncDecl]types.Type{},
		inFly:      map[*ir.FuncDecl]bool{},
	}
	c.env.Gov = opts.Budget
	if opts.RecordTypes {
		c.result.ExprTypes = map[ir.Expr]types.Type{}
	}
	res = c.result
	defer func() {
		if r := recover(); r != nil {
			bail, ok := governor.AsBailout(r)
			if !ok {
				panic(r)
			}
			res.Bailout = bail
		}
	}()
	c.checkProgram(p)
	return res
}

// scope is a lexical frame of local variables and parameters.
type scope struct {
	parent  *scope
	vars    map[string]types.Type
	mutable map[string]bool
}

func newScope(parent *scope) *scope {
	return &scope{parent: parent, vars: map[string]types.Type{}, mutable: map[string]bool{}}
}

func (s *scope) declare(name string, t types.Type, mutable bool) {
	s.vars[name] = t
	s.mutable[name] = mutable
}

func (s *scope) lookup(name string) (types.Type, bool) {
	for cur := s; cur != nil; cur = cur.parent {
		if t, ok := cur.vars[name]; ok {
			return t, true
		}
	}
	return nil, false
}

func (s *scope) isMutable(name string) bool {
	for cur := s; cur != nil; cur = cur.parent {
		if _, ok := cur.vars[name]; ok {
			return cur.mutable[name]
		}
	}
	return false
}

type checker struct {
	env    *Env
	gov    *governor.Budget
	probes coverage.Recorder
	// probesLive is false for the no-op recorder; probe sites whose names
	// need runtime string building check it first so the unobserved
	// checker (generation filtering, benchmarks) never concatenates just
	// to feed a discarding sink.
	probesLive bool
	result     *Result

	curClass *ir.ClassDecl
	curFunc  *ir.FuncDecl

	// rets memoizes inferred return types of functions declared without
	// one; inFly detects inference cycles.
	rets  map[*ir.FuncDecl]types.Type
	inFly map[*ir.FuncDecl]bool
}

// kindOf names a type's structural kind for probe-site granularity: probe
// sites are the simulated compiler's "source lines", so faceting them by
// the bounded kind vocabulary models distinct code paths per type shape.
func kindOf(t types.Type) string {
	switch tt := t.(type) {
	case nil:
		return "nil"
	case types.Top:
		return "top"
	case types.Bottom:
		return "bottom"
	case *types.Simple:
		if tt.Builtin {
			return "builtin"
		}
		return "simple"
	case *types.Parameter:
		if tt.Bound != nil {
			return "boundedParam"
		}
		return "param"
	case *types.Constructor:
		return "ctor"
	case *types.App:
		for _, a := range tt.Args {
			if _, ok := a.(*types.Projection); ok {
				return "projApp"
			}
			if _, ok := a.(*types.App); ok {
				return "nestedApp"
			}
		}
		return "app"
	case *types.Func:
		return "func"
	case *types.Projection:
		return "proj"
	case *types.Intersection:
		return "intersection"
	}
	return "other"
}

// exprKind names an expression's syntactic form for probe facets.
func exprKind(e ir.Expr) string {
	switch e.(type) {
	case *ir.Const:
		return "const"
	case *ir.VarRef:
		return "var"
	case *ir.FieldAccess:
		return "field"
	case *ir.BinaryOp:
		return "binop"
	case *ir.Block:
		return "block"
	case *ir.Call:
		return "call"
	case *ir.New:
		return "new"
	case *ir.Assign:
		return "assign"
	case *ir.If:
		return "if"
	case *ir.MethodRef:
		return "methodref"
	case *ir.Lambda:
		return "lambda"
	case *ir.Cast:
		return "cast"
	case *ir.Is:
		return "is"
	}
	return "other"
}

// typeOfProbe is "stc.typeOf." + exprKind(e) with the concatenation done
// at compile time: this probe fires once per expression, and building its
// name at runtime dominated the checker's CPU profile.
func typeOfProbe(e ir.Expr) string {
	switch e.(type) {
	case *ir.Const:
		return "stc.typeOf.const"
	case *ir.VarRef:
		return "stc.typeOf.var"
	case *ir.FieldAccess:
		return "stc.typeOf.field"
	case *ir.BinaryOp:
		return "stc.typeOf.binop"
	case *ir.Block:
		return "stc.typeOf.block"
	case *ir.Call:
		return "stc.typeOf.call"
	case *ir.New:
		return "stc.typeOf.new"
	case *ir.Assign:
		return "stc.typeOf.assign"
	case *ir.If:
		return "stc.typeOf.if"
	case *ir.MethodRef:
		return "stc.typeOf.methodref"
	case *ir.Lambda:
		return "stc.typeOf.lambda"
	case *ir.Cast:
		return "stc.typeOf.cast"
	case *ir.Is:
		return "stc.typeOf.is"
	}
	return "stc.typeOf.other"
}

// probeKinds is the closed vocabulary kindOf draws from. probeNames
// precomputes prefix+kind for every entry so kind-faceted probe sites
// look their name up instead of concatenating per call.
var probeKinds = []string{
	"nil", "top", "bottom", "builtin", "simple", "boundedParam", "param",
	"ctor", "app", "projApp", "nestedApp", "func", "proj", "intersection",
	"other",
}

func probeNames(prefix string) map[string]string {
	m := make(map[string]string, len(probeKinds))
	for _, k := range probeKinds {
		m[k] = prefix + k
	}
	return m
}

// probeName returns the precomputed prefix+kind name, falling back to
// concatenation for kinds outside the table (none today; defensive).
func probeName(m map[string]string, prefix, kind string) string {
	if s, ok := m[kind]; ok {
		return s
	}
	return prefix + kind
}

var (
	isSubtypeProbes     = probeNames("types.isSubtype.")
	returnTypeProbes    = probeNames("infer.returnType.")
	varDeclProbes       = probeNames("infer.varDecl.")
	lambdaParamProbes   = probeNames("infer.lambda.param.")
	gcFromArgProbes     = probeNames("infer.genericCall.fromArg.")
	gcFromTargetProbes  = probeNames("infer.genericCall.fromTarget.")
	gcUnboundProbes     = probeNames("infer.genericCall.unbound.")
	diaFromArgProbes    = probeNames("infer.diamond.fromArg.")
	diaFromTargetProbes = probeNames("infer.diamond.fromTarget.")
	diaUnboundProbes    = probeNames("infer.diamond.unbound.")
)

func (c *checker) errorf(kind DiagKind, format string, args ...any) {
	// Diagnostic construction and rendering is compiler code too: these
	// probe sites are reached only on erroneous input — the paths TOM
	// mutants exercise (Figure 9's TOM rows).
	c.probes.Func("code.report")
	c.probes.Line("code.report." + kind.String())
	where := "<top-level>"
	if c.curClass != nil && c.curFunc != nil {
		where = c.curClass.Name + "." + c.curFunc.Name
	} else if c.curFunc != nil {
		where = c.curFunc.Name
	} else if c.curClass != nil {
		where = c.curClass.Name
	}
	c.result.Diags = append(c.result.Diags, Diagnostic{
		Kind:  kind,
		Where: where,
		Msg:   fmt.Sprintf(format, args...),
	})
}

// conforms checks got <: want and reports a TypeMismatch otherwise.
// A nil want imposes no constraint; a Unit want discards the value.
func (c *checker) conforms(got, want types.Type, what string) bool {
	if want == nil || got == nil {
		return true
	}
	if s, ok := want.(*types.Simple); ok && s.TypeName == "Unit" {
		return true
	}
	c.probes.Func("types.isSubtype")
	ok := types.IsSubtypeB(c.gov, got, want)
	c.probes.Branch(probeName(isSubtypeProbes, "types.isSubtype.", kindOf(want)), ok)
	if !ok {
		c.errorf(TypeMismatch, "%s: inferred type is %s but %s was expected", what, got, want)
	}
	return ok
}

func (c *checker) checkProgram(p *ir.Program) {
	c.probes.Func("stc.checkProgram")
	seen := map[string]bool{}
	for _, d := range p.Decls {
		name := d.DeclName()
		c.probes.Branch("stc.duplicateTopLevel", seen[name])
		if seen[name] {
			c.errorf(IllegalDeclaration, "duplicate top-level declaration %s", name)
		}
		seen[name] = true
	}
	for _, d := range p.Decls {
		switch t := d.(type) {
		case *ir.ClassDecl:
			c.checkClass(t)
		case *ir.FuncDecl:
			c.curClass = nil
			c.checkFunc(t, nil)
		case *ir.VarDecl:
			c.curClass, c.curFunc = nil, nil
			c.checkVarDecl(newScope(nil), t)
		}
	}
}

func (c *checker) checkClass(cls *ir.ClassDecl) {
	c.probes.Func("stc.checkClass")
	c.curClass = cls
	c.curFunc = nil
	defer func() { c.curClass = nil }()

	if cls.Super != nil {
		c.checkSuper(cls)
	}
	seen := map[string]bool{}
	for _, f := range cls.Fields {
		if seen[f.Name] {
			c.errorf(IllegalDeclaration, "duplicate member %s", f.Name)
		}
		seen[f.Name] = true
		c.checkTypeWellFormed(f.Type, "field "+f.Name)
	}
	for _, m := range cls.Methods {
		// Methods may be overloaded: duplicates are keyed by the full
		// signature (name + parameter types), as in the JVM languages.
		key := m.Name
		for _, p := range m.Params {
			if p.Type != nil {
				key += "|" + p.Type.String()
			}
		}
		if seen[key] {
			c.errorf(IllegalDeclaration, "duplicate member %s", m.Name)
		}
		seen[key] = true
		c.checkFunc(m, cls)
	}
}

func (c *checker) checkSuper(cls *ir.ClassDecl) {
	c.probes.Func("resolve.checkSuper")
	sup := cls.Super.Type
	var supCls *ir.ClassDecl
	switch s := sup.(type) {
	case *types.Simple:
		supCls = c.env.Class(s.TypeName)
		if supCls == nil && !s.Builtin {
			c.errorf(UnresolvedReference, "unknown supertype %s", s.TypeName)
			return
		}
	case *types.App:
		supCls = c.env.Class(s.Ctor.TypeName)
		if supCls == nil {
			c.errorf(UnresolvedReference, "unknown supertype %s", s.Ctor.TypeName)
			return
		}
		c.checkTypeWellFormed(s, "supertype of "+cls.Name)
	default:
		c.errorf(IllegalDeclaration, "cannot extend %s", sup)
		return
	}
	if supCls != nil {
		c.probes.Branch("stc.extendFinal", !supCls.Open && supCls.Kind == ir.RegularClass)
		if !supCls.Open && supCls.Kind == ir.RegularClass {
			c.errorf(IllegalDeclaration, "class %s is final and cannot be extended", supCls.Name)
		}
		// Super constructor arguments (evaluated in the scope of the
		// class's own constructor parameters, i.e. its fields).
		if supCls.Kind != ir.InterfaceClass {
			_, sigma := c.env.receiverSubstitution(sup)
			want := c.env.ConstructorParams(supCls, sigma)
			sc := newScope(nil)
			for _, f := range cls.Fields {
				sc.declare(f.Name, f.Type, f.Mutable)
			}
			c.probes.Branch("resolve.superCtorArity", len(want) == len(cls.Super.Args))
			if len(cls.Super.Args) != len(want) {
				c.errorf(ArityMismatch, "super constructor of %s expects %d arguments, got %d",
					supCls.Name, len(want), len(cls.Super.Args))
				return
			}
			for i, a := range cls.Super.Args {
				got := c.typeOf(sc, a, want[i])
				c.conforms(got, want[i], fmt.Sprintf("super constructor argument %d", i))
			}
		}
	}
}

// checkTypeWellFormed validates a type mention: known names and type
// arguments satisfying their parameters' bounds.
func (c *checker) checkTypeWellFormed(t types.Type, what string) {
	c.probes.Func("types.wellFormed")
	app, ok := t.(*types.App)
	if !ok {
		return
	}
	sigma := types.NewSubstitutionCap(len(app.Ctor.Params))
	for i, p := range app.Ctor.Params {
		arg := app.Args[i]
		if proj, isProj := arg.(*types.Projection); isProj {
			arg = proj.Bound
		}
		sigma.Bind(p, arg)
	}
	for i, p := range app.Ctor.Params {
		arg := app.Args[i]
		if proj, isProj := arg.(*types.Projection); isProj {
			arg = proj.Bound
		}
		bound := sigma.ApplyB(c.gov, p.UpperBound())
		if types.HasFreeParameters(bound) {
			continue // bound still generic (checked at instantiation)
		}
		ok := types.IsSubtypeB(c.gov, arg, bound)
		c.probes.Branch("types.boundSatisfied", ok)
		if !ok {
			c.errorf(BoundViolation,
				"%s: type parameter bound for %s in %s is not satisfied: %s is not a subtype of %s",
				what, p.ParamName, app.Ctor.TypeName, arg, bound)
		}
		if nested, isApp := app.Args[i].(*types.App); isApp {
			c.checkTypeWellFormed(nested, what)
		}
	}
}

func (c *checker) checkFunc(f *ir.FuncDecl, owner *ir.ClassDecl) {
	c.probes.Func("stc.checkFunc")
	prevF, prevC := c.curFunc, c.curClass
	c.curFunc = f
	if owner != nil {
		c.curClass = owner
	}
	defer func() { c.curFunc, c.curClass = prevF, prevC }()

	sc := newScope(nil)
	if owner != nil {
		sc.declare("this", SelfType(owner), false)
		for _, fd := range owner.Fields {
			sc.declare(fd.Name, fd.Type, fd.Mutable)
		}
	}
	for _, p := range f.Params {
		if p.Type == nil {
			c.errorf(InferenceFailure, "parameter %s of %s needs a type", p.Name, f.Name)
			continue
		}
		c.checkTypeWellFormed(p.Type, "parameter "+p.Name)
		sc.declare(p.Name, p.Type, false)
	}
	if f.Body == nil {
		c.probes.Branch("stc.abstractBody", owner != nil && owner.Kind != ir.RegularClass)
		if owner == nil || owner.Kind == ir.RegularClass {
			c.errorf(IllegalDeclaration, "function %s needs a body", f.Name)
		}
		return
	}
	if f.Ret != nil {
		got := c.typeOf(sc, f.Body, f.Ret)
		c.checkTypeWellFormed(f.Ret, "return type of "+f.Name)
		c.conforms(got, f.Ret, "return value of "+f.Name)
		return
	}
	// Inferred return type (type-erasure case 3). Memoized, because other
	// declarations may already have demanded it.
	got := c.returnTypeOf(f, owner)
	c.probes.Line(probeName(returnTypeProbes, "infer.returnType.", kindOf(got)))
	key := f.Name
	if owner != nil {
		key = owner.Name + "." + f.Name
	}
	c.result.InferredReturns[key] = got.String()
}

// returnTypeOf yields a function's declared or inferred return type,
// inferring on demand with cycle detection.
func (c *checker) returnTypeOf(f *ir.FuncDecl, owner *ir.ClassDecl) types.Type {
	if f.Ret != nil {
		return f.Ret
	}
	if t, ok := c.rets[f]; ok {
		return t
	}
	c.probes.Line("infer.returnType.onDemand")
	if c.inFly[f] {
		c.errorf(InferenceFailure, "recursive return-type inference for %s", f.Name)
		return types.Top{}
	}
	c.inFly[f] = true
	defer delete(c.inFly, f)

	sc := newScope(nil)
	if owner != nil {
		sc.declare("this", SelfType(owner), false)
		for _, fd := range owner.Fields {
			sc.declare(fd.Name, fd.Type, fd.Mutable)
		}
	}
	for _, p := range f.Params {
		if p.Type != nil {
			sc.declare(p.Name, p.Type, false)
		}
	}
	prevF, prevC := c.curFunc, c.curClass
	c.curFunc, c.curClass = f, owner
	t := c.typeOf(sc, f.Body, nil)
	c.curFunc, c.curClass = prevF, prevC
	c.rets[f] = t
	return t
}

func (c *checker) checkVarDecl(sc *scope, v *ir.VarDecl) {
	c.probes.Func("stc.checkVarDecl")
	if v.Init == nil {
		c.errorf(IllegalDeclaration, "variable %s needs an initializer", v.Name)
		if v.DeclType != nil {
			sc.declare(v.Name, v.DeclType, v.Mutable)
		}
		return
	}
	got := c.typeOf(sc, v.Init, v.DeclType)
	if v.DeclType != nil {
		c.checkTypeWellFormed(v.DeclType, "variable "+v.Name)
		c.conforms(got, v.DeclType, "initializer of "+v.Name)
		sc.declare(v.Name, v.DeclType, v.Mutable)
		return
	}
	// var x = e (type-erasure case 1): the declared type is the inferred
	// type of the right-hand side.
	c.probes.Line(probeName(varDeclProbes, "infer.varDecl.", kindOf(got)))
	if _, isBottom := got.(types.Bottom); isBottom {
		c.errorf(InferenceFailure, "cannot infer a type for %s from a null initializer", v.Name)
	}
	sc.declare(v.Name, got, v.Mutable)
}

// typeOf infers the type of e, checking it against the expected type when
// the expression form needs a target (lambdas, diamonds, generic calls).
// It always returns a usable type; errors are recorded as diagnostics.
func (c *checker) typeOf(sc *scope, e ir.Expr, expected types.Type) types.Type {
	t := c.typeOfInner(sc, e, expected)
	if c.result.ExprTypes != nil {
		c.result.ExprTypes[e] = t
	}
	return t
}

func (c *checker) typeOfInner(sc *scope, e ir.Expr, expected types.Type) types.Type {
	c.gov.Charge(1)
	c.probes.Func(typeOfProbe(e))
	switch t := e.(type) {
	case *ir.Const:
		c.probes.Line("stc.const")
		return t.Type

	case *ir.VarRef:
		c.probes.Func("resolve.varRef")
		if ty, ok := sc.lookup(t.Name); ok {
			c.probes.Branch("resolve.varRef.local", true)
			return ty
		}
		c.probes.Branch("resolve.varRef.local", false)
		if c.curClass != nil {
			if f, ok := c.env.FieldOf(SelfType(c.curClass), t.Name); ok {
				return f.Type
			}
		}
		c.errorf(UnresolvedReference, "unresolved reference: %s", t.Name)
		return types.Top{}

	case *ir.FieldAccess:
		c.probes.Func("resolve.fieldAccess")
		recv := c.typeOf(sc, t.Recv, nil)
		f, ok := c.env.FieldOf(recv, t.Field)
		c.probes.Branch("resolve.fieldAccess.found", ok)
		if !ok {
			c.errorf(UnresolvedReference, "no field %s on %s", t.Field, recv)
			return types.Top{}
		}
		return f.Type

	case *ir.BinaryOp:
		return c.typeOfBinary(sc, t)

	case *ir.Block:
		c.probes.Line("stc.block")
		inner := newScope(sc)
		for _, s := range t.Stmts {
			switch st := s.(type) {
			case *ir.VarDecl:
				c.checkVarDecl(inner, st)
			case *ir.Assign:
				c.checkAssign(inner, st)
			case ir.Expr:
				c.typeOf(inner, st, nil)
			}
		}
		if t.Value == nil {
			return c.env.Builtins.Unit
		}
		return c.typeOf(inner, t.Value, expected)

	case *ir.Call:
		return c.typeOfCall(sc, t, expected)

	case *ir.New:
		return c.typeOfNew(sc, t, expected)

	case *ir.Assign:
		c.checkAssign(sc, t)
		return c.env.Builtins.Unit

	case *ir.If:
		c.probes.Func("stc.checkIf")
		cond := c.typeOf(sc, t.Cond, c.env.Builtins.Boolean)
		if !types.IsSubtypeB(c.gov, cond, c.env.Builtins.Boolean) {
			c.errorf(ConditionNotBoolean, "condition has type %s", cond)
		}
		thenT := c.typeOf(sc, t.Then, expected)
		elseT := c.typeOf(sc, t.Else, expected)
		if c.probesLive {
			c.probes.Line("code.lub." + kindOf(thenT) + "-" + kindOf(elseT))
		}
		return types.LubB(c.gov, thenT, elseT)

	case *ir.MethodRef:
		return c.typeOfMethodRef(sc, t)

	case *ir.Lambda:
		return c.typeOfLambda(sc, t, expected)

	case *ir.Cast:
		c.probes.Line("stc.cast")
		c.typeOf(sc, t.Expr, nil)
		c.checkTypeWellFormed(t.Target, "cast target")
		return t.Target

	case *ir.Is:
		c.probes.Line("stc.isCheck")
		c.typeOf(sc, t.Expr, nil)
		return c.env.Builtins.Boolean
	}
	return types.Top{}
}

func (c *checker) typeOfBinary(sc *scope, t *ir.BinaryOp) types.Type {
	c.probes.Func("stc.checkBinary")
	l := c.typeOf(sc, t.Left, nil)
	r := c.typeOf(sc, t.Right, nil)
	b := c.env.Builtins
	switch t.Op {
	case "==", "!=":
		// Reference equality applies to any operands.
	case "&&", "||":
		if !types.IsSubtypeB(c.gov, l, b.Boolean) || !types.IsSubtypeB(c.gov, r, b.Boolean) {
			c.errorf(ConditionNotBoolean, "operator %s needs Boolean operands, got %s and %s", t.Op, l, r)
		}
	case ">", ">=", "<", "<=":
		// Operands must be numeric; a type parameter qualifies through
		// its upper bound (T : Double is comparable).
		numeric := types.IsSubtypeB(c.gov, l, b.Number) && types.IsSubtypeB(c.gov, r, b.Number)
		c.probes.Branch("stc.comparableOperands", numeric)
		if !numeric {
			c.errorf(TypeMismatch, "operator %s needs numeric operands, got %s and %s", t.Op, l, r)
		}
	default:
		c.errorf(IllegalDeclaration, "unknown operator %s", t.Op)
	}
	return b.Boolean
}

func (c *checker) checkAssign(sc *scope, a *ir.Assign) {
	c.probes.Func("stc.checkAssign")
	switch target := a.Target.(type) {
	case *ir.VarRef:
		ty, ok := sc.lookup(target.Name)
		if !ok && c.curClass != nil {
			if f, fok := c.env.FieldOf(SelfType(c.curClass), target.Name); fok {
				ty, ok = f.Type, true
				if !f.Mutable {
					c.errorf(InvalidAssignment, "val %s cannot be reassigned", target.Name)
				}
			}
		} else if ok && !sc.isMutable(target.Name) {
			c.errorf(InvalidAssignment, "val %s cannot be reassigned", target.Name)
		}
		if !ok {
			c.errorf(UnresolvedReference, "unresolved reference: %s", target.Name)
			c.typeOf(sc, a.Value, nil)
			return
		}
		got := c.typeOf(sc, a.Value, ty)
		c.conforms(got, ty, "assignment to "+target.Name)
	case *ir.FieldAccess:
		recv := c.typeOf(sc, target.Recv, nil)
		f, ok := c.env.FieldOf(recv, target.Field)
		if !ok {
			c.errorf(UnresolvedReference, "no field %s on %s", target.Field, recv)
			c.typeOf(sc, a.Value, nil)
			return
		}
		if !f.Mutable {
			c.errorf(InvalidAssignment, "val %s cannot be reassigned", target.Field)
		}
		got := c.typeOf(sc, a.Value, f.Type)
		c.conforms(got, f.Type, "assignment to "+target.Field)
	default:
		c.errorf(InvalidAssignment, "invalid assignment target")
		c.typeOf(sc, a.Value, nil)
	}
}

func (c *checker) typeOfMethodRef(sc *scope, t *ir.MethodRef) types.Type {
	c.probes.Func("resolve.methodRef")
	recv := c.typeOf(sc, t.Recv, nil)
	sig, ok := c.env.MethodOf(recv, t.Method)
	c.probes.Branch("resolve.methodRef.found", ok)
	if !ok {
		c.errorf(UnresolvedReference, "no method %s on %s", t.Method, recv)
		return types.Top{}
	}
	if len(sig.TypeParams) > 0 {
		c.errorf(InferenceFailure, "cannot take a reference to parameterized method %s", t.Method)
		return types.Top{}
	}
	ret := sig.Ret
	if ret == nil {
		ret = sig.Sigma.ApplyB(c.gov, c.returnTypeOf(sig.Decl, sig.Owner))
	}
	return &types.Func{Params: sig.Params, Ret: ret}
}

func (c *checker) typeOfLambda(sc *scope, t *ir.Lambda, expected types.Type) types.Type {
	c.probes.Func("infer.lambda")
	var target *types.Func
	if f, ok := expected.(*types.Func); ok && len(f.Params) == len(t.Params) {
		target = f
	}
	c.probes.Branch("infer.lambda.hasTarget", target != nil)
	inner := newScope(sc)
	paramTypes := make([]types.Type, len(t.Params))
	for i, p := range t.Params {
		switch {
		case p.Type != nil:
			paramTypes[i] = p.Type
			if target != nil && !types.IsSubtypeB(c.gov, target.Params[i], p.Type) {
				c.errorf(TypeMismatch, "lambda parameter %s has type %s but target wants %s",
					p.Name, p.Type, target.Params[i])
			}
		case target != nil:
			// Type-erasure case 4: parameter type from the target type.
			c.probes.Line(probeName(lambdaParamProbes, "infer.lambda.param.", kindOf(target.Params[i])))
			paramTypes[i] = target.Params[i]
		default:
			c.errorf(InferenceFailure, "cannot infer type of lambda parameter %s", p.Name)
			paramTypes[i] = types.Top{}
		}
		inner.declare(p.Name, paramTypes[i], false)
	}
	var want types.Type
	if target != nil {
		want = target.Ret
	}
	body := c.typeOf(inner, t.Body, want)
	if target != nil {
		c.conforms(body, target.Ret, "lambda body")
	}
	return &types.Func{Params: paramTypes, Ret: body}
}
