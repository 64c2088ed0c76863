package typegraph

import (
	"repro/internal/ir"
	"repro/internal/types"
)

// CandidateKind enumerates the program points where the type-erasure
// mutation may remove type information (the four cases of Section 3.4.1)
// and the type-overwriting mutation may replace it (Section 3.4.2).
type CandidateKind int

const (
	// VarDeclType: a variable's declared type (var x: T = e → var x = e).
	VarDeclType CandidateKind = iota
	// NewTypeArgs: explicit constructor type arguments (new A<T>(e) →
	// new A<>(e)).
	NewTypeArgs
	// CallTypeArgs: explicit method type arguments (e.m<T>(x) → e.m(x)).
	CallTypeArgs
	// ReturnType: a method's declared return type (fun m(): T = e →
	// fun m() = e).
	ReturnType
	// LambdaParams: declared lambda parameter types ((x: T) -> e →
	// (x) -> e).
	LambdaParams
)

func (k CandidateKind) String() string {
	switch k {
	case VarDeclType:
		return "var-decl-type"
	case NewTypeArgs:
		return "new-type-args"
	case CallTypeArgs:
		return "call-type-args"
	case ReturnType:
		return "return-type"
	default:
		return "lambda-params"
	}
}

// Candidate is an erasable or overwritable program point, carrying both
// its type-graph footprint and the AST back-pointers the mutators rewrite.
type Candidate struct {
	Kind CandidateKind
	// NodeID is the candidate's principal graph node (a declaration node
	// for variables and returns, the application occurrence for explicit
	// type arguments).
	NodeID string
	// ParamNodeIDs are the type-parameter occurrence nodes belonging to
	// the candidate's annotation.
	ParamNodeIDs []string
	// EraseSet lists the node IDs whose outgoing decl edges the erasure
	// of this candidate removes (Definition 3.4).
	EraseSet []string
	// VanishNodes are nodes that cease to exist in the mutated program
	// (the parameter occurrences of a removed annotation). They are
	// exempt from the preservation check: an erased `: A<Long>` has no
	// A.T left to infer, whereas an erased instantiation `A<>(...)`
	// still does.
	VanishNodes []string

	// AST back-pointers; exactly the one matching Kind is set.
	Var        *ir.VarDecl
	NewExpr    *ir.New
	CallExpr   *ir.Call
	Fun        *ir.FuncDecl
	LambdaExpr *ir.Lambda

	// HasTarget marks lambda candidates whose parameter types are
	// recoverable from a target type.
	HasTarget bool

	// idx caches EraseSet and VanishNodes as indices into the graph's
	// dense view, resolved on the first query against that view.
	idx indexed
}

// Preserves implements Definition 3.5 generalized as the paper's remark
// requires ("removal does not affect the typing of declarations and type
// parameters"): under the erasure of the given candidates, every
// declaration node and every type-parameter occurrence in the graph must
// keep its originally inferred type. This global condition subsumes the
// per-node Definition 3.5/3.6 and prevents an erased annotation from
// silently starving a non-candidate inference site.
//
// A walk that neither skips an erased decl edge nor meets a vanished node
// visits exactly the nodes, in exactly the order, of the erasure-free
// walk, so its inferred type is the baseline by construction; only the
// other walks pay for the least upper bound and the comparison.
func Preserves(g *Graph, cands ...*Candidate) bool {
	for _, c := range cands {
		if c.Kind == LambdaParams && !c.HasTarget {
			return false
		}
	}
	v := g.frozen()
	v.preservesState()
	v.newQuery()
	for _, c := range cands {
		ix := c.indices(v)
		for _, i := range ix.erase {
			v.erased[i] = v.mark
		}
		for _, i := range ix.vanish {
			v.vanished[i] = v.mark
		}
	}
	for _, i := range v.checked {
		if v.vanished[i] == v.mark {
			continue
		}
		v.walk(i)
		if v.touched && !v.base[i].Equal(v.infer()) {
			return false
		}
	}
	return true
}

// RelevanceNodes returns the graph nodes type relevance (and hence TOM)
// is evaluated on: the declaration node for variables and returns, and the
// parameter occurrences for explicit type arguments (the shadowed nodes of
// Figure 6).
func (c *Candidate) RelevanceNodes() []string {
	switch c.Kind {
	case VarDeclType, ReturnType:
		return []string{c.NodeID}
	default:
		return c.ParamNodeIDs
	}
}

// InferAfterErasure returns infer(erasure(G, n), n) for one of a
// candidate's relevance nodes — the quantity type relevance
// (Definition 3.7) is stated over.
func InferAfterErasure(g *Graph, c *Candidate, node string) types.Type {
	v := g.frozen()
	i, ok := v.indexOf(node)
	if !ok {
		return types.Bottom{}
	}
	v.newQuery()
	for _, j := range c.indices(v).erase {
		v.erased[j] = v.mark
	}
	v.walk(i)
	return v.infer()
}

// RelevantTo implements Definition 3.7: node n (a relevance node of
// candidate c) is relevant to type t when, after erasing n, the inferred
// type of n is a subtype of t. TOM overwrites a node with a type it is NOT
// relevant to, which guarantees a type error.
func RelevantTo(g *Graph, c *Candidate, node string, t types.Type) bool {
	inf := InferAfterErasure(g, c, node)
	if _, isBottom := inf.(types.Bottom); isBottom {
		// Nothing inferable: any overwrite may be consistent; treat as
		// relevant (unsafe to overwrite blindly).
		return true
	}
	return types.IsSubtype(inf, t)
}
