package typegraph

import "repro/internal/types"

// view is a graph frozen into dense form for its inference queries: each
// node's index is its insertion order (Node.idx), the decl and inf edges
// are a compressed adjacency list over indices (def edges are never
// walked, and an edge to a missing node reaches nothing, so both are
// dropped), and the baseline inference is kept per index. It owns the
// walk's scratch state, so once a view, its baselines and a query's
// candidate indices exist, a query allocates nothing. Like the graph, a
// view serves one goroutine.
type view struct {
	byID  map[string]*Node // the graph's own node map
	nodes []*Node
	// The out-arcs of node i are arcs[off[i]:off[i+1]], in edge order.
	off  []int32
	arcs []arc

	// Preserves state, built on its first call: checked lists the nodes
	// it compares (declarations and type-parameter occurrences, minus
	// rigid scope parameters), and base[i] is infer(G, i) without
	// erasure, nil until computed.
	checked []int32
	base    []types.Type
	// ids is the sorted node ID list Nodes returns; nil until asked for.
	ids []string

	// Epoch-stamped marks. Node i's decl edges are erased in the current
	// query when erased[i] == mark, and node i is not traversable when
	// vanished[i] == mark; the current walk has reached i when seen[i] ==
	// visit. Bumping a counter clears its marks in O(1).
	mark, visit            uint32
	erased, vanished, seen []uint32
	buf                    []types.Type
	// touched records that the current walk skipped an erased decl edge
	// or stopped at a vanished node — the only two ways it can depart
	// from the erasure-free walk.
	touched bool
}

// arc is a walked edge: decl when its kind is DeclEdge, inf otherwise.
type arc struct {
	to   int32
	decl bool
}

// frozen returns the graph's dense view, building it on first use.
// Indices follow insertion order rather than sorted IDs: no query result
// depends on the index order, and sorting the IDs cost more than the few
// queries TOM makes per graph.
func (g *Graph) frozen() *view {
	if g.view != nil {
		return g.view
	}
	n := len(g.nodes)
	v := &view{
		byID:  g.nodes,
		nodes: make([]*Node, n),
		off:   make([]int32, n+1),
		arcs:  make([]arc, 0, g.NumEdges()),
	}
	for _, nd := range g.nodes {
		v.nodes[nd.idx] = nd
	}
	for i, nd := range v.nodes {
		for _, e := range g.out[nd.ID] {
			if to, ok := v.indexOf(e.To); ok && e.Kind != DefEdge {
				v.arcs = append(v.arcs, arc{to, e.Kind == DeclEdge})
			}
		}
		v.off[i+1] = int32(len(v.arcs))
	}
	marks := make([]uint32, 3*n)
	v.erased, v.vanished, v.seen = marks[:n:n], marks[n:2*n:2*n], marks[2*n:]
	g.view = v
	return v
}

// indexOf returns the dense index of the node with the given ID; false
// when no node has it.
func (v *view) indexOf(id string) (int32, bool) {
	if n := v.byID[id]; n != nil {
		return n.idx, true
	}
	return 0, false
}

// newQuery starts a query with no node erased or vanished.
func (v *view) newQuery() {
	if v.mark++; v.mark == 0 {
		clear(v.erased)
		clear(v.vanished)
		v.mark = 1
	}
}

// markMaps marks the IDs a map-based erasure and blocked set name.
func (v *view) markMaps(erased Erasure, blocked map[string]bool) {
	for id, on := range erased {
		if i, ok := v.indexOf(id); ok && on {
			v.erased[i] = v.mark
		}
	}
	for id, on := range blocked {
		if i, ok := v.indexOf(id); ok && on {
			v.vanished[i] = v.mark
		}
	}
}

// walk collects visitedTypes(G, start) under the current query's marks
// into v.buf: the depth-first, edge-ordered traversal of Definition 3.3.
func (v *view) walk(start int32) {
	v.buf = v.buf[:0]
	v.touched = false
	if v.visit++; v.visit == 0 {
		clear(v.seen)
		v.visit = 1
	}
	v.dfs(start, start)
}

func (v *view) dfs(i, start int32) {
	if v.seen[i] == v.visit {
		return
	}
	if v.vanished[i] == v.mark && i != start {
		v.touched = true
		return
	}
	v.seen[i] = v.visit
	if n := v.nodes[i]; i != start {
		if n.Type != nil {
			v.buf = append(v.buf, n.Type)
		}
		if n.Rigid {
			// A rigid scope parameter is itself a known type.
			v.buf = append(v.buf, n.Param)
		}
	}
	erased := v.erased[i] == v.mark
	for _, a := range v.arcs[v.off[i]:v.off[i+1]] {
		if a.decl && erased {
			v.touched = true
			continue
		}
		v.dfs(a.to, start)
	}
}

// infer folds the last walk's visited types: ⊔ visitedTypes, or ⊥ when
// nothing was visited.
func (v *view) infer() types.Type {
	if len(v.buf) == 0 {
		return types.Bottom{}
	}
	return types.Lub(v.buf...)
}

// baseline returns infer(G, i) without erasure, memoized. It starts its
// own query, so it must not run between a query's marking and its walks.
func (v *view) baseline(i int32) types.Type {
	if v.base == nil {
		v.base = make([]types.Type, len(v.nodes))
	}
	if v.base[i] == nil {
		v.newQuery()
		v.walk(i)
		v.base[i] = v.infer()
	}
	return v.base[i]
}

// preservesState lists the checked nodes and computes their baselines,
// once per view.
func (v *view) preservesState() {
	if v.checked != nil {
		return
	}
	v.checked = make([]int32, 0, len(v.nodes))
	for i, nd := range v.nodes {
		if (nd.IsDecl || nd.Param != nil) && !nd.Rigid {
			v.checked = append(v.checked, int32(i))
			v.baseline(int32(i))
		}
	}
}

// indexed is a candidate's EraseSet and VanishNodes resolved against one
// view; IDs that name no node are dropped, as they affect no walk.
type indexed struct {
	view          *view
	erase, vanish []int32
}

func (c *Candidate) indices(v *view) *indexed {
	if c.idx.view != v {
		c.idx = indexed{view: v, erase: v.lookup(c.EraseSet), vanish: v.lookup(c.VanishNodes)}
	}
	return &c.idx
}

func (v *view) lookup(ids []string) []int32 {
	out := make([]int32, 0, len(ids))
	for _, id := range ids {
		if i, ok := v.indexOf(id); ok {
			out = append(out, i)
		}
	}
	return out
}
