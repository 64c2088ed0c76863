package main

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/campaign"
	"repro/internal/harness"
	metricsreg "repro/internal/metrics"
)

func TestSelfTimesSubtractChildCoverage(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 30},
		// Overlaps its sibling: the overlap is covered once.
		{ID: 2, Parent: 0, Start: 20, End: 50},
		{ID: 3, Parent: 0, Start: 60, End: 70},
		// Grandchild: covered time of span 1, not of span 0.
		{ID: 4, Parent: 1, Start: 12, End: 18},
		// Reaches past its parent's end: clipped to the parent.
		{ID: 5, Parent: 3, Start: 65, End: 90},
	}
	got := selfTimes(spans)
	want := []time.Duration{100 - 40 - 10, 20 - 6, 30, 10 - 5, 6, 25}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d: self time %d, want %d", i, got[i], want[i])
		}
	}
}

func TestRecorderParentsThroughContext(t *testing.T) {
	r := newRecorder()
	root := r.begin("root", -1, 7)
	ctx := withSpan(context.Background(), root)
	done := make(chan struct{})
	go func() {
		defer close(done)
		id := r.begin("child", spanFrom(ctx), 7)
		r.end(id)
	}()
	<-done
	r.end(root)
	spans := r.snapshot()
	if len(spans) != 2 || spans[1].Parent != root || spans[1].Unit != 7 {
		t.Fatalf("spans = %+v, want a child of span %d for unit 7", spans, root)
	}
	if spanFrom(context.Background()) != -1 {
		t.Fatal("a context without a span must yield -1")
	}
	path := filepath.Join(t.TempDir(), "spans.json.gz")
	if err := r.write(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatal(err)
	}
	var back []span
	if err := json.NewDecoder(zr).Decode(&back); err != nil || len(back) != 2 || back[1].Name != "child" {
		t.Fatalf("written spans = %+v, %v", back, err)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %g, want 4", got)
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("empty quantile = %g, want 0", got)
	}
}

func TestFaultCountsFromLedger(t *testing.T) {
	r := &campaign.Report{Faults: harness.NewLedger()}
	r.Faults.Observe("javac", harness.Invocation{Outcome: harness.Completed, Attempts: 1})
	r.Faults.Observe("javac", harness.Invocation{Outcome: harness.TimedOut, Attempts: 1})
	r.Faults.Observe("kotlinc", harness.Invocation{Outcome: harness.Quarantined})
	r.Faults.Observe("kotlinc", harness.Invocation{Outcome: harness.Errored, Attempts: 3})
	r.Faults.Observe("groovyc", harness.Invocation{Outcome: harness.Crashed, Attempts: 1})
	attempted, failed := faultCounts(r)
	if attempted != 5 || failed != 3 {
		t.Fatalf("attempted, failed = %d, %d; want 5, 3 (crashes are findings, not failures)", attempted, failed)
	}
}

func TestRegistryTotals(t *testing.T) {
	reg := metricsreg.NewRegistry()
	reg.Histogram("harness.fuel_spent.javac").Observe(100)
	reg.Histogram("harness.fuel_spent.kotlinc").Observe(300)
	reg.Histogram("harness.compile_wall_ns.javac").Observe(5)
	reg.Counter("harness.fuel_exhausted.javac").Add(2)
	snap := reg.Snapshot()
	if n, s := histogramTotals(snap, "harness.fuel_spent."); n != 2 || s != 400 {
		t.Errorf("fuel histograms: count %d sum %d, want 2 and 400", n, s)
	}
	if n := counterTotal(snap, "harness.fuel_exhausted."); n != 2 {
		t.Errorf("exhausted counters = %d, want 2", n)
	}
}

func TestEndToEndDerivation(t *testing.T) {
	type timing struct{ wall, steal time.Duration }
	rep := func(seed int64, w1, wn timing, resume time.Duration) *repetition {
		r := &campaign.Report{Found: map[string]*campaign.BugRecord{"a": nil, "b": nil}, Faults: harness.NewLedger()}
		r.Faults.Observe("javac", harness.Invocation{Outcome: harness.Completed, Attempts: 1})
		pass := func(t timing) *passResult {
			return &passResult{units: 10, wall: t.wall, steal: t.steal, setup: time.Millisecond, peakMemory: 3 << 20,
				allocBytes: 1000, allocObjects: 10, gcCPU: 1, usedCPU: 4, report: r}
		}
		return &repetition{seed: seed, w1: pass(w1), wn: pass(wn), resume: resume}
	}
	s, ms := time.Second, time.Millisecond
	// Block 1 is timed three times. At one worker no timing was stolen
	// from, so it is charged the median; at two workers it is charged
	// the one timing with the least steal. Allocation counts every pass.
	gated, info := endToEnd([]*repetition{
		rep(1, timing{s, 0}, timing{s / 2, 20 * ms}, 2*s),
		rep(2, timing{4 * s, 0}, timing{s / 2, 0}, 4*s),
		rep(1, timing{3 * s, 0}, timing{3 * s / 2, 10 * ms}, 3*s),
		rep(1, timing{s / 2, 0}, timing{s / 4, 20 * ms}, 3*s),
	})
	want := map[string]float64{
		"units_per_s":          10,
		"units_per_s_w1":       4,
		"parallel_speedup":     2.5,
		"alloc_bytes_per_unit": 100,
		"allocs_per_unit":      1,
		"gc_cpu_frac":          0.25,
		"setup_s":              0.001,
		"peak_rss_mb":          3,
	}
	for name, v := range want {
		if got := gated[name].Value; got != v {
			t.Errorf("%s = %g, want %g", name, got, v)
		}
	}
	checkDeclared(t, gated, loadSpec(t).EndToEnd)
	for name, v := range map[string]float64{"bugs_found": 2, "failed_frac": 0, "resume_s": 3} {
		if got := info[name].Value; got != v {
			t.Errorf("%s = %g, want %g", name, got, v)
		}
	}
}

func TestCheckPairRejectsDifferingReports(t *testing.T) {
	w := workloads["diff-budget"]
	ok := &campaign.Report{Faults: harness.NewLedger()}
	a := &passResult{workers: 1, doc: []byte(`{"x":1}`), report: ok}
	b := &passResult{workers: 2, doc: []byte(`{"x":2}`), report: ok}
	if err := checkPair(w, a, b); err == nil {
		t.Fatal("differing report documents must fail the check")
	}
	bad := &campaign.Report{Faults: harness.NewLedger()}
	bad.Faults.Observe("javac", harness.Invocation{Outcome: harness.TimedOut, Attempts: 1})
	b = &passResult{workers: 2, doc: a.doc, report: bad}
	if err := checkPair(w, a, b); err == nil {
		t.Fatal("a failed compile must fail the check")
	}
}

// benchmarkSpec is the part of the repository's BENCHMARK.json the
// benchmark's output must agree with.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// checkDeclared fails unless got holds exactly the declared metrics,
// each with its declared unit.
func checkDeclared(t *testing.T, got map[string]metric, declared []struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}) {
	t.Helper()
	for _, d := range declared {
		m, ok := got[d.Name]
		if !ok {
			t.Errorf("declared metric %s not printed", d.Name)
		} else if m.Unit != d.Unit {
			t.Errorf("%s printed in %s, declared in %s", d.Name, m.Unit, d.Unit)
		}
	}
	if len(got) != len(declared) {
		t.Errorf("printed %d metrics, declared %d", len(got), len(declared))
	}
}

func TestSpecNamesWorkloads(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Error(err)
		}
	}
}

// TestBaselineCoversSpec checks that baseline.json records, for every
// workload, its seeds and a baseline of every end-to-end metric in its
// declared unit.
func TestBaselineCoversSpec(t *testing.T) {
	data, err := os.ReadFile("baseline.json")
	if err != nil {
		t.Fatal(err)
	}
	var base struct {
		Workloads map[string]struct {
			Seed        *int64 `json:"seed"`
			HeldOutSeed *int64 `json:"held_out_seed"`
			EndToEnd    map[string]struct {
				Median float64 `json:"median"`
				Unit   string  `json:"unit"`
			} `json:"end_to_end"`
		} `json:"workloads"`
	}
	if err := json.Unmarshal(data, &base); err != nil {
		t.Fatal(err)
	}
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		b, ok := base.Workloads[w.Name]
		if !ok {
			t.Errorf("no baseline for %s", w.Name)
			continue
		}
		if b.Seed == nil || b.HeldOutSeed == nil || *b.Seed == *b.HeldOutSeed {
			t.Errorf("%s: need a seed and a distinct held-out seed", w.Name)
		}
		for _, m := range spec.EndToEnd {
			if e, ok := b.EndToEnd[m.Name]; !ok || e.Unit != m.Unit || e.Median <= 0 {
				t.Errorf("%s: baseline of %s = %+v", w.Name, m.Name, e)
			}
		}
	}
}

// smallWorkload shrinks a workload to a smoke-test size.
func smallWorkload(name string, units int) workload {
	w := workloads[name]
	w.units = units
	return w
}

// TestSmokeWorkloads runs each workload at a tiny size through the
// benchmark's own path: the timed pass pair with its output check, the
// durable resume check, and the traced replay with its verdict check.
func TestSmokeWorkloads(t *testing.T) {
	for _, tc := range []struct {
		name  string
		units int
	}{{"mutate-gt", 2}, {"diff-budget", 8}, {"synth-durable", 70}} {
		t.Run(tc.name, func(t *testing.T) {
			w := smallWorkload(tc.name, tc.units)
			scratch := t.TempDir()
			r, err := runRepetition(w, 3, 0, 2, scratch)
			if err != nil {
				t.Fatal(err)
			}
			if w.durable && r.resume <= 0 {
				t.Error("the durable workload must time its resume")
			}
			tr := newTracedRun(w)
			if err := tr.replay(r, scratch); err != nil {
				t.Fatal(err)
			}
			m, err := tr.finish([]*repetition{r}, filepath.Join(scratch, "spans.json"))
			if err != nil {
				t.Fatal(err)
			}
			checkDeclared(t, m, loadSpec(t).PerLayer)
			for _, name := range []string{"pipeline.execute.busy_share", "harness.overhead_us", "compilers.javac.compile_us", "checker.check_us"} {
				if m[name].Value <= 0 {
					t.Errorf("%s = %g, want > 0", name, m[name].Value)
				}
			}
			if !strings.HasPrefix(tc.name, "synth") && m["generator.program_ms"].Value <= 0 {
				t.Error("generator spans missing")
			}
			if w.durable && (m["journal.sync_us"].Value <= 0 || m["journal.bytes_per_unit"].Value <= 0) {
				t.Error("journal spans missing")
			}
		})
	}
}

var regenerateStrata = flag.String("strata", "", "re-measure the named workload's block cost table and print it (takes minutes)")

// TestStrata checks the stratified workloads' strata and block
// selection. With -strata it re-measures one workload's cost table: each
// block runs as a 1-worker campaign on one processor, timed, with its
// heap allocation counted.
func TestStrata(t *testing.T) {
	for _, name := range []string{"mutate-gt", "diff-budget"} {
		t.Run(name, func(t *testing.T) { checkStrata(t, workloads[name]) })
	}
	if d := workloads["synth-durable"]; d.blockSeed(1, 1)-d.blockSeed(1, 0) != int64(d.units) {
		t.Error("unstratified repetitions must cover consecutive seed ranges")
	}
	if *regenerateStrata == "" {
		return
	}
	w, err := lookupWorkload(*regenerateStrata)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var b strings.Builder
	for j := range w.costs {
		opts, err := w.options(w.base+int64(j)*int64(w.units), 1, "", false)
		if err != nil {
			t.Fatal(err)
		}
		isolate()
		before := readRuntime().allocBytes
		start := time.Now()
		if r := campaign.Run(opts); !r.Complete() {
			t.Fatal(r.Err)
		}
		ms := time.Since(start).Milliseconds()
		mb := float64(readRuntime().allocBytes-before) / 1e6
		sep := " "
		if j%6 == 0 {
			sep = "\n\t"
		}
		fmt.Fprintf(&b, "%s{%d, %.1f},", sep, ms, mb)
	}
	t.Logf("%s costs:%s", w.name, b.String())
}

func checkStrata(t *testing.T, w workload) {
	n := len(w.strata)
	seen := map[int]bool{}
	for k, s := range w.strata {
		if len(s) != len(w.strata[0]) {
			t.Fatal("strata must be of equal size")
		}
		for _, j := range s {
			if seen[j] {
				t.Fatalf("block %d appears twice", j)
			}
			seen[j] = true
			if k > 0 && w.costs[j].ms < w.costs[w.strata[k-1][len(w.strata[k-1])-1]].ms {
				t.Fatalf("stratum %d holds block %d, cheaper than stratum %d's costliest", k, j, k-1)
			}
		}
	}
	if len(seen) != len(w.costs) {
		t.Fatalf("strata hold %d of %d blocks", len(seen), len(w.costs))
	}

	var want float64
	for _, s := range w.strata {
		for _, j := range s {
			want += w.costs[j].ms / float64(len(s))
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		for c := 0; c < 2; c++ {
			var ms float64
			for k := 0; k < n; k++ {
				rep := c*n + k
				b := w.blockSeed(seed, rep)
				if b != w.blockSeed(seed, rep) {
					t.Fatal("block choice must be a function of (seed, rep)")
				}
				j := int((b - w.base) / int64(w.units))
				if !slices.Contains(w.strata[k], j) {
					t.Fatalf("seed %d: repetition %d drew block %d outside stratum %d", seed, rep, j, k)
				}
				ms += w.costs[j].ms
			}
			if dev := ms/want - 1; dev > 0.05 || dev < -0.05 {
				t.Errorf("seed %d cycle %d: reference time %.0f ms, %.1f%% off the average cycle's", seed, c, ms, 100*dev)
			}
		}
	}
	if w.blockSeed(1, 0) == w.blockSeed(2, 0) && w.blockSeed(1, 1) == w.blockSeed(2, 1) {
		t.Error("different seeds must draw different blocks")
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := lookupWorkload("nope"); err == nil || !strings.Contains(err.Error(), "mutate-gt") {
		t.Fatalf("err = %v, want the known workloads listed", err)
	}
}
