package typegraph

import (
	"fmt"

	"repro/internal/checker"
	"repro/internal/ir"
	"repro/internal/types"
)

// walkExpr applies the analysis rules of Figure 5 to an expression,
// returning the occurrence reference carrying its type information.
func (b *builder) walkExpr(e ir.Expr) occRef {
	switch t := e.(type) {
	case *ir.Const:
		return occRef{node: b.g.AddTypeNode(t.Type).ID}

	case *ir.VarRef:
		if ref, ok := b.varOcc[t.Name]; ok {
			return ref
		}
		return occRef{node: b.g.AddTypeNode(b.staticType(t)).ID}

	case *ir.FieldAccess:
		return b.walkFieldAccess(t)

	case *ir.BinaryOp:
		b.walkExpr(t.Left)
		b.walkExpr(t.Right)
		return occRef{node: b.g.AddTypeNode(b.a.Env.Builtins.Boolean).ID}

	case *ir.Block:
		for _, s := range t.Stmts {
			switch st := s.(type) {
			case *ir.VarDecl:
				b.walkVarDecl(st)
			case *ir.Assign:
				b.walkAssign(st)
			case ir.Expr:
				b.walkExpr(st)
			}
		}
		if t.Value == nil {
			return occRef{node: b.g.AddTypeNode(b.a.Env.Builtins.Unit).ID}
		}
		return b.walkExpr(t.Value)

	case *ir.Call:
		return b.walkCall(t)

	case *ir.New:
		return b.walkNew(t)

	case *ir.Assign:
		b.walkAssign(t)
		return occRef{node: b.g.AddTypeNode(b.a.Env.Builtins.Unit).ID}

	case *ir.If:
		b.walkExpr(t.Cond)
		thenRef := b.walkExpr(t.Then)
		elseRef := b.walkExpr(t.Else)
		join := b.g.AddDeclNode(fmt.Sprintf("if#%d", b.nextOcc()))
		b.g.AddEdge(join.ID, thenRef.node, InfEdge)
		b.g.AddEdge(join.ID, elseRef.node, InfEdge)
		return occRef{node: join.ID}

	case *ir.MethodRef:
		b.walkExpr(t.Recv)
		return occRef{node: b.g.AddTypeNode(b.staticType(t)).ID}

	case *ir.Lambda:
		inner := map[string]occRef{}
		for name, ref := range b.varOcc {
			inner[name] = ref
		}
		saved := b.varOcc
		b.varOcc = inner
		ft, _ := b.staticType(t).(*types.Func)
		for i, p := range t.Params {
			pt := p.Type
			if pt == nil && ft != nil && i < len(ft.Params) {
				pt = ft.Params[i]
			}
			if pt != nil {
				ref := b.registerType(pt, DeclEdge, nil)
				node := b.g.AddDeclNode(fmt.Sprintf("lparam:%s#%d", p.Name, b.nextOcc()))
				b.g.AddEdge(node.ID, ref.node, DeclEdge)
				ref.node = node.ID
				b.varOcc[p.Name] = ref
			}
		}
		b.walkExpr(t.Body)
		b.varOcc = saved
		return occRef{node: b.g.AddTypeNode(b.staticType(t)).ID}

	case *ir.Cast:
		b.walkExpr(t.Expr)
		return b.registerType(t.Target, InfEdge, nil)

	case *ir.Is:
		b.walkExpr(t.Expr)
		return occRef{node: b.g.AddTypeNode(b.a.Env.Builtins.Boolean).ID}
	}
	return occRef{node: b.g.AddTypeNode(types.Top{}).ID}
}

// walkVarDecl implements the [var decl], [var param constructor], and
// [var param method call] rules: decl and inf edges for the variable,
// plus unify′ dependency links between the declared type's and the
// initializer's parameter occurrences.
func (b *builder) walkVarDecl(v *ir.VarDecl) {
	if v.Init == nil {
		return
	}
	rhs := b.walkExpr(v.Init)
	node := b.g.AddDeclNode("var:" + v.Name)
	b.g.AddEdge(node.ID, rhs.node, InfEdge)

	stored := rhs
	stored.node = node.ID
	stored.receptive = false // uses of the variable are not target-receptive
	if v.DeclType != nil {
		declRef := b.registerType(v.DeclType, DeclEdge, nil)
		b.g.AddEdge(node.ID, declRef.node, DeclEdge)
		b.linkTarget(declRef, rhs)
		b.g.Candidates = append(b.g.Candidates, &Candidate{
			Kind:         VarDeclType,
			NodeID:       node.ID,
			ParamNodeIDs: declRef.paramIDs(),
			EraseSet:     append([]string{node.ID}, declRef.paramIDs()...),
			VanishNodes:  declRef.paramIDs(),
			Var:          v,
		})
		// The variable's positional structure is its declared type's.
		stored = declRef
		stored.node = node.ID
		stored.receptive = false
	}
	b.varOcc[v.Name] = stored
}

func (b *builder) walkAssign(a *ir.Assign) {
	rhs := b.walkExpr(a.Value)
	if vr, ok := a.Target.(*ir.VarRef); ok {
		if ref, exists := b.varOcc[vr.Name]; exists {
			// Flow-sensitivity: the assigned value feeds the variable's
			// inferred type (Groovy's flow typing, Figure 11c), and the
			// variable's fixed type is the assigned value's target.
			b.g.AddEdge(ref.node, rhs.node, InfEdge)
			b.linkTarget(ref, rhs)
			return
		}
	}
	if fa, ok := a.Target.(*ir.FieldAccess); ok {
		target := b.walkFieldAccess(fa)
		b.g.AddEdge(target.node, rhs.node, InfEdge)
		b.linkTarget(target, rhs)
	}
}

// walkFieldAccess resolves e.f and exposes the field's type structure in
// terms of the receiver occurrence's parameter nodes, so that type
// information flows through field reads (the closure().f chain of
// Figure 1).
func (b *builder) walkFieldAccess(fa *ir.FieldAccess) occRef {
	recv := b.walkExpr(fa.Recv)
	static := b.staticType(fa)

	recvType := b.staticType(fa.Recv)
	if app, ok := recvType.(*types.App); ok && recv.app != nil && app.Ctor.Equal(recv.app.Ctor) {
		if cls := b.a.Env.Class(app.Ctor.TypeName); cls != nil {
			if fd := cls.FieldByName(fa.Field); fd != nil {
				tpOccs := map[string]string{}
				for id, n := range recv.params {
					tpOccs[id] = n
				}
				ref := b.registerType(fd.Type, InfEdge, tpOccs)
				if ref.app == nil {
					if app2, isApp := static.(*types.App); isApp {
						ref.app = app2
					}
				}
				return ref
			}
		}
	}
	// Inherited or structurally opaque field: fall back to the static type.
	return occRef{node: b.g.AddTypeNode(static).ID}
}

// walkNew implements the constructor-invocation rules: the [type
// application] treatment of its (possibly explicit) instantiation, field
// declaration nodes with decl/inf edges, and [param call]-style dependency
// links between the instantiation's parameters and the arguments' types.
func (b *builder) walkNew(n *ir.New) occRef {
	static := b.staticType(n)
	app, isApp := static.(*types.App)
	if !isApp {
		// Unparameterized class: just walk arguments.
		for _, a := range n.Args {
			b.walkExpr(a)
		}
		return occRef{node: b.g.AddTypeNode(static).ID}
	}
	cls := b.a.Env.Class(app.Ctor.TypeName)
	// A diamond carries no declared arguments, so its occurrences get inf
	// edges.
	explicit := n.TypeArgs != nil
	kind := InfEdge
	if explicit {
		kind = DeclEdge
	}
	ref := b.registerType(app, kind, nil)
	ref.receptive = true // diamonds are inferred from their target type
	if explicit && cls != nil {
		b.g.Candidates = append(b.g.Candidates, &Candidate{
			Kind:         NewTypeArgs,
			NodeID:       ref.node,
			ParamNodeIDs: ref.paramIDs(),
			EraseSet:     ref.paramIDs(),
			NewExpr:      n,
		})
	}
	if cls == nil {
		for _, a := range n.Args {
			b.walkExpr(a)
		}
		return ref
	}
	// Constructor arguments flow into field positions ([param call] via
	// the paper's "constructor with call arguments is modeled as calling
	// a parameterized method").
	for i, arg := range n.Args {
		if i >= len(cls.Fields) {
			b.walkExpr(arg)
			continue
		}
		fd := cls.Fields[i]
		argRef := b.walkExpr(arg)
		b.linkParamFlowOccs(fd.Type, ref.params, argRef)

		// Field declaration node (B<String>.f in Figure 6): declared type
		// in terms of the instantiation, inferred from the argument.
		fieldNode := b.g.AddDeclNode(fmt.Sprintf("%s.%s#%d", cls.Name, fd.Name, b.nextOcc()))
		declRef := b.registerType(fd.Type, InfEdge, ref.params)
		b.g.AddEdge(fieldNode.ID, declRef.node, DeclEdge)
		b.g.AddEdge(fieldNode.ID, argRef.node, InfEdge)
	}
	return ref
}

// linkParamFlowOccs links an argument's occurrence into a callee's
// parameter occurrences ([param call]): paramType is the declared
// parameter (or field) type, whose type-parameter mentions resolve through
// occs. The callee's parameters are always inferable from the argument's
// type; the reverse — the argument inferred from the (substituted)
// parameter type — only holds for target-receptive arguments.
func (b *builder) linkParamFlowOccs(paramType types.Type, occs map[string]string, argRef occRef) {
	switch pt := paramType.(type) {
	case *types.Parameter:
		if occNode, ok := occs[pt.ID()]; ok {
			// The whole argument instantiates this parameter.
			b.g.AddEdge(occNode, argRef.node, InfEdge)
		}
	case *types.App:
		if argRef.app == nil {
			return
		}
		// Align the parameter type's positions with the argument's
		// occurrence positions, climbing the hierarchy when needed.
		synthetic := occRef{app: pt, params: map[string]string{}, nested: map[int]occRef{}}
		for i, a := range pt.Args {
			if proj, ok := a.(*types.Projection); ok {
				a = proj.Bound
			}
			if p, ok := a.(*types.Parameter); ok {
				if occNode, exists := occs[p.ID()]; exists {
					synthetic.params[ctorParamID(pt, i)] = occNode
				}
			}
		}
		b.linkAligned(pt, synthetic, argRef, occs)
	}
}

// ctorParamID returns the constructor parameter ID for position i of app.
func ctorParamID(app *types.App, i int) string {
	return app.Ctor.Params[i].ID()
}

// linkAligned walks pt's argument positions against argRef's occurrence,
// adding inf edges between dependent parameter occurrences.
func (b *builder) linkAligned(pt *types.App, synthetic occRef, argRef occRef, occs map[string]string) {
	xPos, yPos := b.correspond(synthetic, argRef)
	if xPos == nil {
		return
	}
	for i := range xPos {
		if i >= len(pt.Args) {
			break
		}
		a := pt.Args[i]
		if proj, ok := a.(*types.Projection); ok {
			a = proj.Bound
		}
		switch at := a.(type) {
		case *types.Parameter:
			if occNode, exists := occs[at.ID()]; exists && yPos[i].paramNode != "" {
				// Callee parameter inferred from the argument: always.
				b.g.AddEdge(occNode, yPos[i].paramNode, InfEdge)
				// Argument inferred from the callee parameter (the
				// compiler passing a target into the argument): only for
				// receptive arguments.
				if argRef.receptive {
					b.g.AddEdge(yPos[i].paramNode, occNode, InfEdge)
				}
			}
		case *types.App:
			if yPos[i].nested != nil {
				inner := *yPos[i].nested
				inner.receptive = argRef.receptive
				b.linkParamFlowOccs(at, occs, inner)
			}
		}
	}
}

// walkCall implements the [param call] and [var param method call] rules
// for method and function calls, including explicit type-argument
// occurrences (erasure candidates) and return-type linking.
func (b *builder) walkCall(call *ir.Call) occRef {
	var sig checker.MethodSig
	var found bool
	if call.Recv != nil {
		b.walkExpr(call.Recv)
		recvType := b.staticType(call.Recv)
		sig, found = b.a.Env.MethodOf(recvType, call.Name)
	} else {
		sig, found = b.a.Env.TopLevelSig(call.Name)
	}
	static := b.staticType(call)
	if !found {
		for _, a := range call.Args {
			b.walkExpr(a)
		}
		// The call's result may still carry structure (e.g. invoking a
		// lambda variable whose inferred type is B<A<Long>>): give it an
		// occurrence so downstream field accesses can link.
		if app, ok := static.(*types.App); ok {
			return b.registerType(app, InfEdge, nil)
		}
		return occRef{node: b.g.AddTypeNode(static).ID}
	}

	// Type-argument occurrences for the method's own parameters.
	occs := map[string]string{}
	var paramNodeIDs []string
	occ := b.nextOcc()
	for _, tp := range sig.TypeParams {
		pid := fmt.Sprintf("%s.%s#%d", call.Name, tp.ParamName, occ)
		b.g.AddParamNode(pid, tp)
		occs[tp.ID()] = pid
		paramNodeIDs = append(paramNodeIDs, pid)
	}
	if call.TypeArgs != nil && len(call.TypeArgs) == len(sig.TypeParams) {
		var eraseSet []string
		for i, ta := range call.TypeArgs {
			ref := b.registerType(ta, DeclEdge, nil)
			b.g.AddEdge(occs[sig.TypeParams[i].ID()], ref.node, DeclEdge)
			eraseSet = append(eraseSet, ref.paramIDs()...)
		}
		eraseSet = append(eraseSet, paramNodeIDs...)
		b.g.Candidates = append(b.g.Candidates, &Candidate{
			Kind:         CallTypeArgs,
			NodeID:       paramNodeIDs[0],
			ParamNodeIDs: paramNodeIDs,
			EraseSet:     eraseSet,
			CallExpr:     call,
		})
	}
	// Arguments flow into parameter positions ([param call]).
	for i, arg := range call.Args {
		argRef := b.walkExpr(arg)
		if i < len(sig.Params) && sig.Params[i] != nil {
			b.linkParamFlowOccs(sig.Params[i], occs, argRef)
		}
	}
	// The return type, with method type-parameter mentions wired to this
	// call's occurrences ([var param method call] when a target exists).
	retDecl := sig.Ret
	if retDecl == nil && sig.Decl != nil {
		retDecl = static
	}
	ref := b.registerType(retDecl, InfEdge, occs)
	if ref.app == nil {
		if app, ok := static.(*types.App); ok {
			ref.app = app
		}
	}
	// Parameterized calls accept a target type ([var param method call]).
	ref.receptive = len(sig.TypeParams) > 0
	return ref
}
