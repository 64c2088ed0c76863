// Package mutation implements the paper's two transformation-based testing
// techniques (Section 3.4): the type erasure mutation (TEM), a
// semantics-preserving transformation that removes as much type
// information as the type-preservation property allows, and the type
// overwriting mutation (TOM), a fault-injecting transformation that
// replaces a type with one the program point is not relevant to.
//
// Both mutations clone the input program, build per-method type graphs
// (internal/typegraph), and rewrite the clone through the candidates' AST
// back-pointers, so the original program is never disturbed.
package mutation

import (
	"fmt"

	"repro/internal/checker"
	"repro/internal/ir"
	"repro/internal/typegraph"
	"repro/internal/types"
)

// ErasedPoint describes one piece of type information TEM removed.
type ErasedPoint struct {
	Method string
	Kind   typegraph.CandidateKind
	Detail string
}

// TEMReport summarizes a type-erasure mutation.
type TEMReport struct {
	Erased []ErasedPoint
	// CandidatesSeen and CandidatesPreserving count the per-method
	// filtering stages of Algorithm 2 (lines 4 and 5).
	CandidatesSeen       int
	CandidatesPreserving int
	// CombinationsTried counts preservation checks performed during the
	// maximal-set search (lines 6–9).
	CombinationsTried int
	// RepairedMethods counts methods whose erasures were rolled back by
	// the final verification pass: the intra-procedural type-graph model
	// occasionally over-approximates what the checker's inference can
	// recover (for instance through chains of mutually erased call type
	// arguments), and rolling those methods back restores the guarantee
	// that TEM output is well-typed by construction.
	RepairedMethods int
}

// Changed reports whether the mutation removed anything.
func (r *TEMReport) Changed() bool { return len(r.Erased) > 0 }

// TypeErasure applies the type erasure mutation (Algorithm 2) to p and
// returns the mutated clone. For every method it builds the type graph,
// keeps the candidates that individually preserve their types
// (Definition 3.5), and erases the maximal combination for which the
// generalized type preservation property holds (Definition 3.6). By
// construction the result is well-typed whenever p is.
func TypeErasure(p *ir.Program, b *types.Builtins) (*ir.Program, *TEMReport) {
	clone := ir.CloneProgram(p)
	a := typegraph.Analyze(clone, b)
	report := &TEMReport{}
	cyclic := cyclicFunctions(clone)

	// erasedByMethod remembers each method's applied candidates so the
	// verification pass can roll a method back wholesale.
	erasedByMethod := map[string][]*typegraph.Candidate{}
	originals := map[string]*ir.FuncDecl{}

	apply := func(name string, m *ir.FuncDecl, owner *ir.ClassDecl) {
		g := a.BuildGraph(m, owner)
		report.CandidatesSeen += len(g.Candidates)
		// Line 5: drop candidates that do not preserve on their own.
		// Return types additionally require the function to sit outside
		// every call cycle: return-type inference is inter-procedural,
		// and erasing a return annotation inside a cycle makes inference
		// recursive no matter what the (intra-procedural) type graph says.
		var nodes []*typegraph.Candidate
		for _, c := range g.Candidates {
			if c.Kind == typegraph.ReturnType && cyclic[c.Fun] {
				continue
			}
			if typegraph.Preserves(g, c) {
				nodes = append(nodes, c)
			}
		}
		report.CandidatesPreserving += len(nodes)
		// Lines 6–9: find the maximal omittable combination.
		best := maximalPreservingSet(g, nodes, &report.CombinationsTried)
		if len(best) > 0 {
			originals[name] = ir.CloneDecl(m).(*ir.FuncDecl)
		}
		for _, c := range best {
			eraseCandidate(c)
			erasedByMethod[name] = append(erasedByMethod[name], c)
			report.Erased = append(report.Erased, ErasedPoint{
				Method: name,
				Kind:   c.Kind,
				Detail: c.NodeID,
			})
		}
	}

	for _, d := range clone.Decls {
		switch t := d.(type) {
		case *ir.FuncDecl:
			apply(t.Name, t, nil)
		case *ir.ClassDecl:
			for _, m := range t.Methods {
				apply(t.Name+"."+m.Name, m, t)
			}
		}
	}

	// Verification pass: the graph model is intra-procedural and can in
	// rare cases over-approximate the checker's inference power. Roll
	// back the erasures of any method the checker still complains about.
	for round := 0; round < 16; round++ {
		res := checker.Check(clone, b, checker.Options{})
		if res.OK() {
			break
		}
		undone := false
		for _, d := range res.Diags {
			if _, ok := erasedByMethod[d.Where]; !ok {
				continue
			}
			restoreMethod(clone, d.Where, originals[d.Where])
			delete(erasedByMethod, d.Where)
			report.RepairedMethods++
			report.Erased = dropMethod(report.Erased, d.Where)
			undone = true
		}
		if !undone {
			// Diagnostics point at untouched methods (cross-method
			// effects); roll everything back.
			for name := range erasedByMethod {
				restoreMethod(clone, name, originals[name])
				report.RepairedMethods++
			}
			report.Erased = nil
			erasedByMethod = map[string][]*typegraph.Candidate{}
		}
	}
	return clone, report
}

// restoreMethod swaps a method's declaration back to its pre-erasure copy.
func restoreMethod(p *ir.Program, name string, original *ir.FuncDecl) {
	if original == nil {
		return
	}
	replace := func(m *ir.FuncDecl) {
		m.Ret = original.Ret
		m.Body = original.Body
		m.Params = original.Params
	}
	for _, d := range p.Decls {
		switch t := d.(type) {
		case *ir.FuncDecl:
			if t.Name == name {
				replace(t)
				return
			}
		case *ir.ClassDecl:
			for _, m := range t.Methods {
				if t.Name+"."+m.Name == name {
					replace(m)
					return
				}
			}
		}
	}
}

func dropMethod(points []ErasedPoint, method string) []ErasedPoint {
	out := points[:0]
	for _, p := range points {
		if p.Method != method {
			out = append(out, p)
		}
	}
	return out
}

// maximalPreservingSet enumerates combinations of candidate nodes from
// largest to smallest and returns the first combination that satisfies
// generalized type preservation — the maximal erasable set. The
// enumeration is worst-case exponential (as the paper notes), but the
// line-5 filter and the early break keep it cheap in practice; a hard cap
// bounds pathological inputs.
func maximalPreservingSet(g *typegraph.Graph, nodes []*typegraph.Candidate, tried *int) []*typegraph.Candidate {
	const maxChecks = 4096
	buf := make([]*typegraph.Candidate, len(nodes))
	for k := len(nodes); k >= 1; k-- {
		combo, found := buf[:k], false
		combinations(len(nodes), k, func(idx []int) bool {
			*tried++
			if *tried > maxChecks {
				return false
			}
			for i, j := range idx {
				combo[i] = nodes[j]
			}
			found = typegraph.Preserves(g, combo...)
			return !found
		})
		if found {
			return append([]*typegraph.Candidate(nil), combo...)
		}
		if *tried > maxChecks {
			break
		}
	}
	return nil
}

// combinations calls visit with every size-k index combination of [0, n)
// until visit returns false.
func combinations(n, k int, visit func([]int) bool) {
	if k > n || k <= 0 {
		return
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		if !visit(idx) {
			return
		}
		// Advance to the next combination.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// eraseCandidate rewrites the AST to remove the candidate's type
// information (the four erasure cases of Section 3.4.1).
func eraseCandidate(c *typegraph.Candidate) {
	switch c.Kind {
	case typegraph.VarDeclType:
		c.Var.DeclType = nil
	case typegraph.NewTypeArgs:
		c.NewExpr.TypeArgs = nil
	case typegraph.CallTypeArgs:
		c.CallExpr.TypeArgs = nil
	case typegraph.ReturnType:
		c.Fun.Ret = nil
	case typegraph.LambdaParams:
		for _, p := range c.LambdaExpr.Params {
			p.Type = nil
		}
	}
}

func (p ErasedPoint) String() string {
	return fmt.Sprintf("%s: erased %s at %s", p.Method, p.Kind, p.Detail)
}

// cyclicFunctions over-approximates the set of functions participating in
// a call cycle. Calls are resolved by name against every function in the
// program (names are unique in generated programs; ambiguity only widens
// the set, which is safe).
func cyclicFunctions(p *ir.Program) map[*ir.FuncDecl]bool {
	byName := map[string][]*ir.FuncDecl{}
	for _, f := range ir.AllMethods(p) {
		byName[f.Name] = append(byName[f.Name], f)
	}
	edges := map[*ir.FuncDecl][]*ir.FuncDecl{}
	for _, f := range ir.AllMethods(p) {
		if f.Body == nil {
			continue
		}
		ir.Walk(f.Body, func(n ir.Node) bool {
			if call, ok := n.(*ir.Call); ok {
				edges[f] = append(edges[f], byName[call.Name]...)
			}
			if mref, ok := n.(*ir.MethodRef); ok {
				edges[f] = append(edges[f], byName[mref.Method]...)
			}
			return true
		})
	}
	cyclic := map[*ir.FuncDecl]bool{}
	for _, f := range ir.AllMethods(p) {
		// f is cyclic when f is reachable from f through one or more
		// call edges.
		seen := map[*ir.FuncDecl]bool{}
		stack := append([]*ir.FuncDecl{}, edges[f]...)
		for len(stack) > 0 {
			g := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if g == f {
				cyclic[f] = true
				break
			}
			if seen[g] {
				continue
			}
			seen[g] = true
			stack = append(stack, edges[g]...)
		}
	}
	return cyclic
}
