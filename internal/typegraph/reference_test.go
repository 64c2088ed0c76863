package typegraph

import (
	"sort"
	"testing"

	"repro/internal/types"
)

// The reference implementation: the map-based visitedTypes / infer /
// preservation queries the dense view replaced, kept literal (string node
// IDs, fresh maps per call, a Lub and an Equal for every checked node) and
// written against the public graph API only. The tests below assert that the
// dense queries agree with it.

func refVisitedTypes(g *Graph, start string, erased Erasure, blocked map[string]bool) []types.Type {
	var out []types.Type
	seen := map[string]bool{}
	var dfs func(id string)
	dfs = func(id string) {
		if seen[id] || (blocked != nil && blocked[id] && id != start) {
			return
		}
		seen[id] = true
		n := g.Node(id)
		if n == nil {
			return
		}
		if n.Type != nil && id != start {
			out = append(out, n.Type)
		}
		if n.Rigid && id != start {
			out = append(out, n.Param)
		}
		for _, e := range g.Edges(id) {
			switch e.Kind {
			case DeclEdge:
				if erased != nil && erased[id] {
					continue
				}
				dfs(e.To)
			case InfEdge:
				dfs(e.To)
			}
		}
	}
	dfs(start)
	return out
}

func refInfer(g *Graph, start string, erased Erasure, blocked map[string]bool) types.Type {
	ts := refVisitedTypes(g, start, erased, blocked)
	if len(ts) == 0 {
		return types.Bottom{}
	}
	return types.Lub(ts...)
}

func refErasureOf(cands []*Candidate) Erasure {
	e := Erasure{}
	for _, c := range cands {
		for _, id := range c.EraseSet {
			e[id] = true
		}
	}
	return e
}

// refPreserves memoizes the erasure-free inference in base, as the graph
// did before the dense view.
func refPreserves(g *Graph, base map[string]types.Type, cands ...*Candidate) bool {
	erased := refErasureOf(cands)
	vanished := map[string]bool{}
	for _, c := range cands {
		if c.Kind == LambdaParams && !c.HasTarget {
			return false
		}
		for _, id := range c.VanishNodes {
			vanished[id] = true
		}
	}
	for _, id := range g.Nodes() {
		n := g.Node(id)
		if (!n.IsDecl && n.Param == nil) || n.Rigid || vanished[id] {
			continue
		}
		before, ok := base[id]
		if !ok {
			before = refInfer(g, id, nil, nil)
			base[id] = before
		}
		after := refInfer(g, id, erased, vanished)
		if !before.Equal(after) {
			return false
		}
	}
	return true
}

// refSearch runs TEM's candidate search on one graph (Algorithm 2 lines
// 5–9: the single-candidate filter, then combinations from largest to
// smallest until one preserves, under TEM's 4096-check cap) and calls
// check on every candidate combination the search tries. The search is
// driven by the reference verdicts. TEM also drops return-type
// candidates of functions in a call cycle, which needs the whole program;
// the search here keeps them.
func refSearch(g *Graph, check func(combo []*Candidate) bool) {
	var nodes []*Candidate
	for _, c := range g.Candidates {
		if check([]*Candidate{c}) {
			nodes = append(nodes, c)
		}
	}
	const maxChecks = 4096
	tried := 0
	for k := len(nodes); k >= 1 && tried <= maxChecks; k-- {
		idx := make([]int, k)
		for i := range idx {
			idx[i] = i
		}
		for {
			if tried++; tried > maxChecks {
				return
			}
			combo := make([]*Candidate, k)
			for i, j := range idx {
				combo[i] = nodes[j]
			}
			if check(combo) {
				return
			}
			i := k - 1
			for i >= 0 && idx[i] == len(nodes)-k+i {
				i--
			}
			if i < 0 {
				break
			}
			idx[i]++
			for j := i + 1; j < k; j++ {
				idx[j] = idx[j-1] + 1
			}
		}
	}
}

// TestDensePreservesMatchesReference checks dense Preserves against the
// reference on every combination TEM's search tries, over the method
// graphs of 100 generated programs.
func TestDensePreservesMatchesReference(t *testing.T) {
	checks, preserving := 0, 0
	for seed := int64(0); seed < 100; seed++ {
		a := Analyze(genProgram(seed), types.NewBuiltins())
		graphs := a.BuildAll()
		for _, name := range sortedKeys(graphs) {
			g, base := graphs[name], map[string]types.Type{}
			refSearch(g, func(combo []*Candidate) bool {
				want := refPreserves(g, base, combo...)
				if got := Preserves(g, combo...); got != want {
					t.Fatalf("seed %d %s: Preserves(%v) = %v, reference %v", seed, name, comboIDs(combo), got, want)
				}
				checks++
				if want {
					preserving++
				}
				return want
			})
		}
	}
	if checks < 1000 || preserving == 0 || preserving == checks {
		t.Fatalf("search exercised too little: %d checks, %d preserving", checks, preserving)
	}
}

// TestDenseInferenceMatchesReference checks VisitedTypes, InferBlocked,
// BaselineInfer and InferAfterErasure against the reference on every node
// of every method graph of 10 generated programs, without erasure and
// under each candidate's erasure and vanished set.
func TestDenseInferenceMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		a := Analyze(genProgram(seed), types.NewBuiltins())
		graphs := a.BuildAll()
		for _, name := range sortedKeys(graphs) {
			g := graphs[name]
			for _, id := range g.Nodes() {
				if got, want := g.VisitedTypes(id, nil, nil), refVisitedTypes(g, id, nil, nil); !sameTypes(got, want) {
					t.Fatalf("seed %d %s: VisitedTypes(%s) = %v, reference %v", seed, name, id, got, want)
				}
				if got, want := g.BaselineInfer(id), refInfer(g, id, nil, nil); !got.Equal(want) {
					t.Fatalf("seed %d %s: BaselineInfer(%s) = %v, reference %v", seed, name, id, got, want)
				}
				for _, c := range g.Candidates {
					erased := refErasureOf([]*Candidate{c})
					vanished := map[string]bool{}
					for _, v := range c.VanishNodes {
						vanished[v] = true
					}
					if got, want := g.VisitedTypes(id, erased, vanished), refVisitedTypes(g, id, erased, vanished); !sameTypes(got, want) {
						t.Fatalf("seed %d %s: VisitedTypes(%s) under %s = %v, reference %v", seed, name, id, c.NodeID, got, want)
					}
					if got, want := g.InferBlocked(id, erased, vanished), refInfer(g, id, erased, vanished); !got.Equal(want) {
						t.Fatalf("seed %d %s: InferBlocked(%s) under %s = %v, reference %v", seed, name, id, c.NodeID, got, want)
					}
					if got, want := InferAfterErasure(g, c, id), refInfer(g, id, erased, nil); !got.Equal(want) {
						t.Fatalf("seed %d %s: InferAfterErasure(%s, %s) = %v, reference %v", seed, name, c.NodeID, id, got, want)
					}
				}
			}
		}
	}
}

// TestPreservesZeroAlloc pins the steady state of the preservation check:
// once a graph's dense view, baselines and candidate indices exist,
// Preserves allocates nothing.
func TestPreservesZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	g := buildFigure6(t)
	queries := [][]*Candidate{g.Candidates}
	for _, c := range g.Candidates {
		queries = append(queries, []*Candidate{c})
	}
	for _, q := range queries {
		Preserves(g, q...) // warm up: view, baselines, candidate indices
		if n := testing.AllocsPerRun(100, func() { Preserves(g, q...) }); n != 0 {
			t.Errorf("Preserves(%v) allocates %v objects per call, want 0", comboIDs(q), n)
		}
	}
}

func sortedKeys(m map[string]*Graph) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func comboIDs(combo []*Candidate) []string {
	ids := make([]string, len(combo))
	for i, c := range combo {
		ids[i] = c.NodeID
	}
	return ids
}

func sameTypes(a, b []types.Type) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
