package typegraph

import (
	"fmt"

	"repro/internal/checker"
	"repro/internal/ir"
	"repro/internal/types"
)

// Analysis holds everything needed to build type graphs for a program: the
// declaration index and the per-expression static types computed by the
// reference checker ("getType(e)" in Figure 5's rules).
type Analysis struct {
	Env       *checker.Env
	ExprTypes map[ir.Expr]types.Type
	Result    *checker.Result
}

// Analyze type-checks p and prepares a type-graph analysis. The program is
// expected to be well-typed (graphs of ill-typed programs are built on a
// best-effort basis).
func Analyze(p *ir.Program, b *types.Builtins) *Analysis {
	res := checker.Check(p, b, checker.Options{RecordTypes: true})
	return &Analysis{Env: checker.NewEnv(p, b), ExprTypes: res.ExprTypes, Result: res}
}

// BuildGraph runs the intra-procedural, flow-sensitive analysis A(G, n) of
// Section 3.3.2 over one method, returning its type graph. owner is the
// enclosing class, or nil for top-level functions.
func (a *Analysis) BuildGraph(m *ir.FuncDecl, owner *ir.ClassDecl) *Graph {
	b := &builder{
		a:      a,
		g:      NewGraph(),
		varOcc: map[string]occRef{},
	}
	for _, p := range m.Params {
		if p.Type == nil {
			continue
		}
		// Parameters contribute type information but are not erasable
		// (the IR cannot omit parameter types on named functions).
		ref := b.registerType(p.Type, DeclEdge, nil)
		node := b.g.AddDeclNode("param:" + p.Name)
		b.g.AddEdge(node.ID, ref.node, DeclEdge)
		ref.node = node.ID
		b.varOcc[p.Name] = ref
	}
	if owner != nil {
		for _, f := range owner.Fields {
			ref := b.registerType(f.Type, DeclEdge, nil)
			node := b.g.AddDeclNode("field:" + f.Name)
			b.g.AddEdge(node.ID, ref.node, DeclEdge)
			ref.node = node.ID
			b.varOcc[f.Name] = ref
		}
	}
	if m.Body == nil {
		return b.g
	}
	bodyRef := b.walkExpr(m.Body)
	// The return value is a virtual variable named ret ([var .*] rules).
	ret := b.g.AddDeclNode(m.Name + ".ret")
	b.g.AddEdge(ret.ID, bodyRef.node, InfEdge)
	if m.Ret != nil {
		declRef := b.registerType(m.Ret, DeclEdge, nil)
		b.g.AddEdge(ret.ID, declRef.node, DeclEdge)
		b.linkTarget(declRef, bodyRef)
		if isUnit(m.Ret) {
			// Erasing a Unit return annotation is always type-neutral
			// but also uninteresting; skip the candidate.
			return b.g
		}
		b.g.Candidates = append(b.g.Candidates, &Candidate{
			Kind:         ReturnType,
			NodeID:       ret.ID,
			ParamNodeIDs: declRef.paramIDs(),
			EraseSet:     append([]string{ret.ID}, declRef.paramIDs()...),
			VanishNodes:  declRef.paramIDs(),
			Fun:          m,
		})
	}
	return b.g
}

// BuildAll builds the graph of every method in the program, keyed by
// "func" or "Class.method" name.
func (a *Analysis) BuildAll() map[string]*Graph {
	out := map[string]*Graph{}
	for _, d := range a.Env.Program.Decls {
		switch t := d.(type) {
		case *ir.FuncDecl:
			out[t.Name] = a.BuildGraph(t, nil)
		case *ir.ClassDecl:
			for _, m := range t.Methods {
				out[t.Name+"."+m.Name] = a.BuildGraph(m, t)
			}
		}
	}
	return out
}

func isUnit(t types.Type) bool {
	s, ok := t.(*types.Simple)
	return ok && s.Builtin && s.TypeName == "Unit"
}

// occRef describes where an expression's or annotation's type information
// lives in the graph: its principal node, its type-application structure,
// and the parameter-occurrence nodes per argument position.
type occRef struct {
	node string
	// app is the occurrence's application type (nil for ground types).
	app *types.App
	// params maps the app's constructor-parameter IDs to this
	// occurrence's parameter nodes.
	params map[string]string
	// nested holds occurrence refs of application-typed argument
	// positions, keyed by position index.
	nested map[int]occRef
	// receptive marks expressions whose typing accepts a target type
	// (constructor and method calls, possibly through blocks). Target
	// information only flows backward into receptive positions — a
	// compiler infers new C<>() from an expected type, but never infers a
	// field-access receiver or an already-typed variable from one.
	receptive bool
}

func (r occRef) paramIDs() []string {
	if r.app == nil {
		return nil
	}
	var out []string
	for _, p := range r.app.Ctor.Params {
		if id, ok := r.params[p.ID()]; ok {
			out = append(out, id)
		}
	}
	for _, n := range r.nested {
		out = append(out, n.paramIDs()...)
	}
	return out
}

type builder struct {
	a      *Analysis
	g      *Graph
	occ    int
	varOcc map[string]occRef
}

func (b *builder) nextOcc() int {
	b.occ++
	return b.occ
}

// scopeParamNode returns the shared node for a type parameter that is in
// scope (a class or method declaration-site parameter).
func (b *builder) scopeParamNode(p *types.Parameter) string {
	n := b.g.AddScopeParamNode("scope:"+p.ID(), p)
	return n.ID
}

// registerType materializes a syntactic type occurrence. For type
// applications it creates the [type application] rule's nodes and edges:
// an application node, a parameter-occurrence node per position (def
// edges), and an edge of the given kind from each parameter occurrence to
// its argument (decl for explicit annotations, inf for types that are
// merely known, never erased). tpOccs, when non-nil, maps in-scope type
// parameter IDs to existing occurrence nodes, so positions mentioning them
// are linked rather than re-created.
func (b *builder) registerType(t types.Type, kind EdgeKind, tpOccs map[string]string) occRef {
	switch tt := t.(type) {
	case *types.App:
		occ := b.nextOcc()
		id := fmt.Sprintf("%s#%d", tt.String(), occ)
		b.g.AddAppNode(id, tt)
		ref := occRef{node: id, app: tt, params: map[string]string{}, nested: map[int]occRef{}}
		for i, p := range tt.Ctor.Params {
			pid := fmt.Sprintf("%s.%s#%d", tt.Ctor.TypeName, p.ParamName, occ)
			b.g.AddParamNode(pid, p)
			b.g.AddEdge(id, pid, DefEdge)
			ref.params[p.ID()] = pid
			arg := tt.Args[i]
			if proj, ok := arg.(*types.Projection); ok {
				arg = proj.Bound
			}
			switch at := arg.(type) {
			case *types.App:
				nested := b.registerType(at, kind, tpOccs)
				b.g.AddEdge(pid, nested.node, kind)
				ref.nested[i] = nested
			case *types.Parameter:
				if tpOccs != nil {
					if occNode, ok := tpOccs[at.ID()]; ok {
						// Dependent parameters: information flows both
						// ways between the occurrences.
						b.g.AddEdge(pid, occNode, InfEdge)
						b.g.AddEdge(occNode, pid, InfEdge)
						continue
					}
				}
				b.g.AddEdge(pid, b.scopeParamNode(at), kind)
			default:
				b.g.AddEdge(pid, b.g.AddTypeNode(arg).ID, kind)
			}
		}
		return ref
	case *types.Parameter:
		if tpOccs != nil {
			if occNode, ok := tpOccs[tt.ID()]; ok {
				return occRef{node: occNode}
			}
		}
		return occRef{node: b.scopeParamNode(tt)}
	default:
		return occRef{node: b.g.AddTypeNode(t).ID}
	}
}

// linkTarget records the unify′ dependencies of the [var param
// constructor] and [var param method call] rules: the (receptive)
// right-hand side's parameter occurrences are inferable from the declared
// target's corresponding occurrences. Information flows one way — from
// the annotation into the expression — matching what inference engines
// actually do with an expected type.
func (b *builder) linkTarget(annot, rhs occRef) {
	if !rhs.receptive {
		return
	}
	b.linkDirectional(rhs, annot)
}

// linkDirectional adds "to is inferred by from" edges between the
// corresponding parameter occurrences of two hierarchy-related
// occurrences.
func (b *builder) linkDirectional(to, from occRef) {
	if to.app == nil || from.app == nil {
		return
	}
	tc, fc := b.correspond(to, from)
	if tc == nil {
		return
	}
	for i := range tc {
		pt, pf := tc[i], fc[i]
		if pt.paramNode != "" && pf.paramNode != "" {
			b.g.AddEdge(pt.paramNode, pf.paramNode, InfEdge)
		}
		if pt.nested != nil && pf.nested != nil {
			// Nested receptivity follows the outer expression: an inner
			// diamond inside a receptive constructor call is receptive.
			inner := *pt.nested
			inner.receptive = true
			b.linkDirectional(inner, *pf.nested)
		}
	}
}

// position is one aligned argument position of two related occurrences.
type position struct {
	paramNode string
	nested    *occRef
}

// correspond aligns the argument positions of two occurrences whose
// application types are related through the class hierarchy, returning
// parallel slices (nil when the constructors are unrelated). For
// class B<T> : A<T>, positions of B<X> align with positions of A<X>.
func (b *builder) correspond(x, y occRef) ([]position, []position) {
	if x.app.Ctor.Equal(y.app.Ctor) {
		return positionsOf(x), positionsOf(y)
	}
	// Try climbing y's hierarchy to x's constructor.
	if xs, ys, ok := climb(x, y); ok {
		return xs, ys
	}
	if ys, xs, ok := climb(y, x); ok {
		return xs, ys
	}
	return nil, nil
}

func positionsOf(r occRef) []position {
	out := make([]position, len(r.app.Ctor.Params))
	for i, p := range r.app.Ctor.Params {
		out[i] = position{paramNode: r.params[p.ID()]}
		if n, ok := r.nested[i]; ok {
			nn := n
			out[i].nested = &nn
		}
	}
	return out
}

// climb maps sub's parameter occurrences into base's positions via sub's
// supertype chain: S(B<T>) = A<T> aligns B's T-occurrence with A's
// position 0.
func climb(base, sub occRef) ([]position, []position, bool) {
	selfArgs := make([]types.Type, len(sub.app.Ctor.Params))
	for i, p := range sub.app.Ctor.Params {
		selfArgs[i] = p
	}
	self := sub.app.Ctor.Apply(selfArgs...)
	for _, sup := range types.SuperChain(self) {
		app, ok := sup.(*types.App)
		if !ok || !app.Ctor.Equal(base.app.Ctor) {
			continue
		}
		basePos := positionsOf(base)
		subPos := make([]position, len(app.Args))
		for i, e := range app.Args {
			if p, isParam := e.(*types.Parameter); isParam {
				subPos[i] = position{paramNode: sub.params[p.ID()]}
				// Find the positional index of p in sub's ctor to carry
				// nested refs along.
				for j, sp := range sub.app.Ctor.Params {
					if sp.ID() == p.ID() {
						if n, ok := sub.nested[j]; ok {
							nn := n
							subPos[i].nested = &nn
						}
					}
				}
			}
		}
		return basePos, subPos, true
	}
	return nil, nil, false
}

// staticType returns the checker-recorded type of e (Top when unknown).
func (b *builder) staticType(e ir.Expr) types.Type {
	if t, ok := b.a.ExprTypes[e]; ok && t != nil {
		return t
	}
	return types.Top{}
}
