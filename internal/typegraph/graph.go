// Package typegraph implements the type-information model of Section 3.3:
// the type graph, the intra-procedural type inference analysis that builds
// it (Figure 5), and the type preservation / type relevance properties
// (Definitions 3.3–3.7) that the TEM and TOM mutations rely on.
//
// A type graph G = (V, E) has declaration nodes and type nodes, and edges
// labelled decl (explicitly declared types), inf (inferred types and
// type-parameter dependencies), and def (a type application containing its
// type parameters). Type-parameter *occurrences* — one per syntactic type
// application — are the pivotal nodes: erasing an annotation removes the
// decl edges of its parameter occurrences, and preservation asks whether
// every occurrence still reaches a concrete type.
package typegraph

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/types"
)

// EdgeKind labels a type-graph edge (L = {decl, inf, def}).
type EdgeKind int

const (
	// DeclEdge: the type of the source node is explicitly declared.
	DeclEdge EdgeKind = iota
	// InfEdge: the type of the source node is inferred from the target.
	InfEdge
	// DefEdge: the source type application contains the target parameter.
	DefEdge
)

func (k EdgeKind) String() string {
	switch k {
	case DeclEdge:
		return "decl"
	case InfEdge:
		return "inf"
	default:
		return "def"
	}
}

// Node is a vertex of the type graph. Exactly one of the roles applies:
//
//   - a declaration node (IsDecl) for variables, fields, and virtual
//     return-value declarations;
//   - a concrete type node (Type != nil), either a shared ground type or a
//     type-application occurrence;
//   - a type-parameter occurrence node (Param != nil) such as B.T:7.
type Node struct {
	ID     string
	IsDecl bool
	Type   types.Type
	Param  *types.Parameter
	// Rigid marks an in-scope declaration-site type parameter (a class or
	// method parameter visible where the method body mentions it). Unlike
	// occurrence nodes, a rigid parameter is itself a valid type the
	// compiler knows — it acts as a concrete source for inference.
	Rigid bool

	// idx is the node's insertion index in its graph, which is also its
	// index in the graph's dense view.
	idx int32
}

func (n *Node) String() string { return n.ID }

// Edge is a directed, labelled edge.
type Edge struct {
	To   string
	Kind EdgeKind
}

// Graph is a type graph for one method (the analysis is intra-procedural).
type Graph struct {
	nodes map[string]*Node
	out   map[string][]Edge

	// Candidates are the erasable/overwritable program points discovered
	// while building the graph (double-circled and shadowed nodes of
	// Figure 6).
	Candidates []*Candidate

	// view is the dense form every inference query runs on, built on the
	// first query and dropped on any mutation. Preserves is called once per
	// candidate combination (worst case thousands of times per graph), so
	// everything combination-independent — node order, adjacency, baseline
	// inference, scratch marks — lives here. A graph is built and then
	// queried by a single goroutine, so the view needs no locking.
	view *view
}

func (g *Graph) invalidate() { g.view = nil }

// NewGraph returns an empty type graph.
func NewGraph() *Graph {
	return &Graph{nodes: map[string]*Node{}, out: map[string][]Edge{}}
}

// Node returns the node with the given ID, or nil.
func (g *Graph) Node(id string) *Node { return g.nodes[id] }

// Nodes returns all node IDs in sorted order. Callers must not mutate the
// returned slice: it is memoized until the graph changes.
func (g *Graph) Nodes() []string {
	v := g.frozen()
	if v.ids == nil {
		v.ids = make([]string, len(v.nodes))
		for i, n := range v.nodes {
			v.ids[i] = n.ID
		}
		sort.Strings(v.ids)
	}
	return v.ids
}

// Edges returns the out-edges of a node.
func (g *Graph) Edges(id string) []Edge { return g.out[id] }

// NumNodes returns the node count.
func (g *Graph) NumNodes() int { return len(g.nodes) }

// NumEdges returns the edge count.
func (g *Graph) NumEdges() int {
	n := 0
	for _, es := range g.out {
		n += len(es)
	}
	return n
}

func (g *Graph) ensure(n *Node) *Node {
	if existing, ok := g.nodes[n.ID]; ok {
		return existing
	}
	g.invalidate()
	n.idx = int32(len(g.nodes))
	g.nodes[n.ID] = n
	return n
}

// AddDeclNode adds (or returns) a declaration node.
func (g *Graph) AddDeclNode(id string) *Node {
	return g.ensure(&Node{ID: id, IsDecl: true})
}

// AddTypeNode adds (or returns) a shared concrete type node keyed by the
// type's rendering.
func (g *Graph) AddTypeNode(t types.Type) *Node {
	return g.ensure(&Node{ID: t.String(), Type: t})
}

// AddAppNode adds a type-application occurrence node with a unique ID.
func (g *Graph) AddAppNode(id string, t types.Type) *Node {
	return g.ensure(&Node{ID: id, Type: t})
}

// AddParamNode adds a type-parameter occurrence node.
func (g *Graph) AddParamNode(id string, p *types.Parameter) *Node {
	return g.ensure(&Node{ID: id, Param: p})
}

// AddScopeParamNode adds (or returns) the shared node for a rigid in-scope
// type parameter.
func (g *Graph) AddScopeParamNode(id string, p *types.Parameter) *Node {
	return g.ensure(&Node{ID: id, Param: p, Rigid: true})
}

// AddEdge inserts a directed edge, deduplicating exact repeats.
func (g *Graph) AddEdge(from, to string, kind EdgeKind) {
	for _, e := range g.out[from] {
		if e.To == to && e.Kind == kind {
			return
		}
	}
	g.invalidate()
	g.out[from] = append(g.out[from], Edge{To: to, Kind: kind})
}

// Erasure is a set of node IDs whose outgoing decl edges are removed —
// the erasure operation of Definition 3.4 expressed as an edge filter, so
// candidate combinations can be tested without copying the graph.
type Erasure map[string]bool

// VisitedTypes implements visitedTypes(G, n): all concrete type nodes
// reachable from n through decl or inf edges, under the given erasure.
// def edges are not followed. Nodes in blocked no longer exist in the
// mutated program (removed annotations) and are not traversed at all.
func (g *Graph) VisitedTypes(start string, erased Erasure, blocked map[string]bool) []types.Type {
	v, ok := g.query(start, erased, blocked)
	if !ok {
		return nil
	}
	return append([]types.Type(nil), v.buf...)
}

// Infer implements Definition 3.3: infer(G, n) = ⊔ visitedTypes(G, n),
// under an optional erasure.
func (g *Graph) Infer(start string, erased Erasure) types.Type {
	return g.InferBlocked(start, erased, nil)
}

// BaselineInfer is Infer(start, nil) memoized per graph — the erasure-free
// inference Preserves compares every candidate combination against.
func (g *Graph) BaselineInfer(start string) types.Type {
	v := g.frozen()
	i, ok := v.indexOf(start)
	if !ok {
		return types.Bottom{}
	}
	return v.baseline(i)
}

// InferBlocked is Infer with a set of non-traversable (vanished) nodes.
func (g *Graph) InferBlocked(start string, erased Erasure, blocked map[string]bool) types.Type {
	v, ok := g.query(start, erased, blocked)
	if !ok {
		return types.Bottom{}
	}
	return v.infer()
}

// query walks from start under a map-based erasure and blocked set; false
// means start names no node, which visits nothing.
func (g *Graph) query(start string, erased Erasure, blocked map[string]bool) (*view, bool) {
	v := g.frozen()
	i, ok := v.indexOf(start)
	if !ok {
		return nil, false
	}
	v.newQuery()
	v.markMaps(erased, blocked)
	v.walk(i)
	return v, true
}

// Dot renders the graph in Graphviz format; decl nodes are red boxes, type
// nodes blue, matching Figure 6's presentation.
func (g *Graph) Dot() string {
	var b strings.Builder
	b.WriteString("digraph typegraph {\n")
	for _, id := range g.Nodes() {
		n := g.nodes[id]
		shape, color := "ellipse", "blue"
		if n.IsDecl {
			shape, color = "box", "red"
		}
		fmt.Fprintf(&b, "  %q [shape=%s,color=%s];\n", id, shape, color)
	}
	for _, id := range g.Nodes() {
		for _, e := range g.out[id] {
			fmt.Fprintf(&b, "  %q -> %q [label=%q];\n", id, e.To, e.Kind)
		}
	}
	b.WriteString("}\n")
	return b.String()
}
