package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"runtime/metrics"
	"time"

	"repro/internal/apisynth"
	"repro/internal/campaign"
	"repro/internal/checker"
	"repro/internal/compilers"
	"repro/internal/coverage"
	"repro/internal/difforacle"
	"repro/internal/generator"
	"repro/internal/governor"
	"repro/internal/harness"
	"repro/internal/ir"
	"repro/internal/journal"
	metricsreg "repro/internal/metrics"
	"repro/internal/mutation"
	"repro/internal/oracle"
	"repro/internal/translate"
	"repro/internal/typegraph"
	"repro/internal/types"
)

// Span names. Stage spans are children of a unit's root span and mirror
// the campaign's pipeline stages; layer spans are children of the stage
// that makes the call. Probe spans are roots of their own: they time a
// layer the campaign calls only from inside another layer, so they are
// extra work and are left out of the accounting against stage busy
// time.
const (
	spanUnit        = "unit"
	spanGenerator   = "generator.program"
	spanSynth       = "apisynth.program"
	spanTEM         = "mutation.tem"
	spanTOM         = "mutation.tom"
	spanREM         = "mutation.rem"
	spanHarness     = "harness.compile"
	spanCompilePfx  = "compilers."
	spanAnalyze     = "difforacle.analyze"
	spanConformance = "difforacle.conformance"
	spanRenderPfx   = "translate."
	spanAppend      = "journal.append"
	spanSync        = "journal.sync"
	spanSnapshot    = "journal.snapshot"
	spanTypegraph   = "typegraph.build"
	spanChecker     = "checker.check"
)

// stageNames are the campaign's pipeline stages after the source, in
// pipeline order.
var stageNames = []string{"generate", "mutate", "execute", "judge", "aggregate"}

// snapshotEvery is the campaign's default snapshot cadence, which the
// durable workload keeps.
const snapshotEvery = 64

// tracedRun replays every repetition's units through the layers' public
// functions, in the order the campaign's stages call them, recording a
// span around each call.
type tracedRun struct {
	w   workload
	rec *recorder
	// counts are the layer counters the replay takes beside the spans.
	counts layerCounts
	// replayWall is the replay's total wall time, set-up included.
	replayWall time.Duration
	// serial holds each repetition's serial pass: the campaign at one
	// worker on one processor, instrumented. With one processor a
	// stage's busy time is its work, not also its wait for a processor
	// the other stages hold, so it is what the replay's stage spans are
	// accounted against.
	serial []*passResult
}

// layerCounts are work and outcome counts taken at the layer
// boundaries during the replay.
type layerCounts struct {
	generated, irNodes             int
	temCalls, temCombinations      int
	temErased, temCandidates       int
	temAllocBytes                  uint64
	tomCalls, tomApplied           int
	remCalls, remApplied           int
	graphs, graphNodes, graphEdges int
	renders, renderBytes           int
	diffInputs, diffDisagree       int
	units, journalBytes            int
}

func newTracedRun(w workload) *tracedRun {
	return &tracedRun{w: w, rec: newRecorder()}
}

// spanTarget is a harness target that records a span around the
// compiler call, parented to the harness span carried by the context.
type spanTarget struct {
	c   *compilers.Compiler
	rec *recorder
}

func (t spanTarget) Name() string { return t.c.Name() }

func (t spanTarget) Compile(ctx context.Context, p *ir.Program, cov coverage.Recorder) (*compilers.Result, error) {
	key, _ := harness.KeyFrom(ctx)
	id := t.rec.begin(spanCompilePfx+t.c.Name()+".compile", spanFrom(ctx), key.Unit)
	defer t.rec.end(id)
	return t.c.CompileContext(ctx, p, cov)
}

// replayUnit is the replay's copy of a pipeline unit.
type replayUnit struct {
	seed     int64
	kind     oracle.InputKind
	stress   bool
	builtins *types.Builtins
	inputs   []replayInput
	execs    []replayExec
}

type replayInput struct {
	kind oracle.InputKind
	prog *ir.Program
}

type replayExec struct {
	compiler string
	input    int
	result   *compilers.Result
	verdict  oracle.Verdict
}

// durableReplay holds what the journal layer is replayed with: the
// records and the final snapshot the campaign itself wrote for the same
// units, and a fresh store to write them to.
type durableReplay struct {
	records   [][]byte
	snapshot  []byte
	syncEvery int
	w         *journal.Writer
	store     *journal.Store
}

// loadDurable reads the finished campaign's journal records and latest
// snapshot and opens a fresh store for the replay to write them to.
func loadDurable(stateDir, scratch string) (*durableReplay, int, error) {
	src, err := journal.Open(stateDir)
	if err != nil {
		return nil, 0, err
	}
	d := &durableReplay{}
	bad, err := src.Replay(func(_ int64, payload []byte) error {
		d.records = append(d.records, append([]byte(nil), payload...))
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	if len(bad) > 0 {
		return nil, 0, fmt.Errorf("campaign journal in %s has %d corrupt records", stateDir, len(bad))
	}
	raw, err := src.JournalBytes()
	if err != nil {
		return nil, 0, err
	}
	if _, d.snapshot, _, err = src.LatestSnapshot(); err != nil {
		return nil, 0, err
	}
	dir, err := os.MkdirTemp(scratch, "replay-")
	if err != nil {
		return nil, 0, err
	}
	if d.store, err = journal.Open(dir); err != nil {
		return nil, 0, err
	}
	// Sync is called explicitly at the campaign's fsync cadence below;
	// the large cadence keeps Append itself from syncing, so the two
	// costs land in separate spans.
	if d.w, err = d.store.Append(1 << 30); err != nil {
		return nil, 0, err
	}
	return d, len(raw), nil
}

func (d *durableReplay) close() error {
	err := d.w.Close()
	if rmErr := os.RemoveAll(d.store.Dir()); err == nil {
		err = rmErr
	}
	return err
}

// replay runs the repetition's serial pass, then re-runs the same units
// through the layers, also on one processor, and checks that the replay
// reached the campaign's verdicts.
func (t *tracedRun) replay(r *repetition, scratch string) (err error) {
	w := t.w
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	stateDir := ""
	if w.durable {
		var err error
		if stateDir, err = newStateDir(scratch); err != nil {
			return err
		}
		defer os.RemoveAll(stateDir)
	}
	serial, err := runPass(w, 1, r.seed, stateDir, metricsreg.NewRegistry())
	if err != nil {
		return err
	}
	if !bytes.Equal(serial.doc, r.w1.doc) {
		return fmt.Errorf("%s: serial pass report differs from the 1-worker report (seed %d)", w.name, r.seed)
	}
	t.serial = append(t.serial, serial)

	opts, err := w.options(r.seed, 1, "", false)
	if err != nil {
		return err
	}
	var dur *durableReplay
	if w.durable {
		var n int
		if dur, n, err = loadDurable(stateDir, scratch); err != nil {
			return err
		}
		dur.syncEvery = max(opts.SyncEvery, 1)
		defer func() {
			if cerr := dur.close(); err == nil {
				err = cerr
			}
		}()
		t.counts.journalBytes += n
		if len(dur.records) != w.units {
			return fmt.Errorf("%s: campaign journal holds %d records for %d units", w.name, len(dur.records), w.units)
		}
	}

	isolate()
	start := time.Now()
	var synth *apisynth.Synthesizer
	if opts.Synth.Enabled() {
		var corp apisynth.Corpus
		if corp, err = opts.Synth.Load(); err != nil {
			return err
		}
		if synth, err = apisynth.NewSynthesizer(corp); err != nil {
			return err
		}
	}
	h := harness.New(opts.Harness)
	var targets []harness.Target
	for _, c := range opts.Compilers {
		targets = append(targets, spanTarget{c: c, rec: t.rec})
	}
	verdicts := map[string]map[oracle.InputKind]map[oracle.Verdict]int{}
	units := make([]*replayUnit, 0, w.units)
	for i := 0; i < w.units; i++ {
		u := &replayUnit{seed: r.seed + int64(i)}
		root := t.rec.begin(spanUnit, -1, u.seed)
		t.stage("generate", root, u, func(sp int) { t.generate(sp, u, opts.GenConfig, opts.Synth, synth) })
		if opts.Mutate {
			t.stage("mutate", root, u, func(sp int) { t.mutate(sp, u) })
		}
		t.stage("execute", root, u, func(sp int) { err = t.execute(sp, u, h, targets) })
		if err != nil {
			return err
		}
		t.stage("judge", root, u, func(sp int) { t.judge(sp, u, opts.Oracle == campaign.Differential) })
		t.stage("aggregate", root, u, func(sp int) { err = t.aggregate(sp, u, i, verdicts, dur) })
		if err != nil {
			return err
		}
		t.rec.end(root)
		units = append(units, u)
	}
	t.replayWall += time.Since(start)
	t.counts.units += w.units
	programsRun := map[oracle.InputKind]int{}
	for _, u := range units {
		for _, in := range u.inputs {
			programsRun[in.kind]++
		}
	}
	if !reflect.DeepEqual(verdicts, serial.report.Verdicts) || !reflect.DeepEqual(programsRun, serial.report.ProgramsRun) {
		return fmt.Errorf("%s: traced replay of seed %d reached different verdicts than the campaign", w.name, r.seed)
	}
	t.probe(units, opts.Harness)
	return nil
}

// stage records a stage span around fn.
func (t *tracedRun) stage(name string, root int, u *replayUnit, fn func(sp int)) {
	sp := t.rec.begin(name, root, u.seed)
	fn(sp)
	t.rec.end(sp)
}

// call records a layer span around fn.
func (t *tracedRun) call(name string, parent int, unit int64, fn func()) {
	id := t.rec.begin(name, parent, unit)
	fn()
	t.rec.end(id)
}

// generate mirrors the Generate stage: the synthesizer claims its seeds,
// the grammar generator (or its stress mode) takes the rest.
func (t *tracedRun) generate(sp int, u *replayUnit, gen generator.Config, sc apisynth.Config, synth *apisynth.Synthesizer) {
	var prog *ir.Program
	u.kind = oracle.Generated
	if synth != nil && sc.SynthSeed(u.seed) {
		t.call(spanSynth, sp, u.seed, func() { prog = synth.Program(u.seed) })
		u.kind = oracle.Synthesized
		u.builtins = synth.Builtins()
	} else {
		var g *generator.Generator
		t.call(spanGenerator, sp, u.seed, func() {
			g = generator.New(gen.WithSeed(u.seed))
			if gen.StressSeed(u.seed) {
				prog = g.GenerateStress()
				u.stress = true
			} else {
				prog = g.Generate()
			}
		})
		u.builtins = g.Builtins()
		t.counts.generated++
		ir.Walk(prog, func(ir.Node) bool { t.counts.irNodes++; return true })
	}
	u.inputs = append(u.inputs, replayInput{kind: u.kind, prog: prog})
}

// heapAllocBytes reads the runtime's cumulative heap allocation count.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// mutate mirrors the Mutate stage, with the campaign's derivation seeds.
func (t *tracedRun) mutate(sp int, u *replayUnit) {
	if u.stress || !u.kind.Mutable() {
		return
	}
	base, b, seed := u.inputs[0].prog, u.builtins, u.seed
	var tem *ir.Program
	var rep *mutation.TEMReport
	before := heapAllocBytes()
	t.call(spanTEM, sp, seed, func() { tem, rep = mutation.TypeErasure(base, b) })
	t.counts.temAllocBytes += heapAllocBytes() - before
	t.counts.temCalls++
	t.counts.temCombinations += rep.CombinationsTried
	t.counts.temCandidates += rep.CandidatesSeen
	t.counts.temErased += len(rep.Erased)
	if rep.Changed() {
		u.inputs = append(u.inputs, replayInput{kind: oracle.TEMMutant, prog: tem})
	}
	tom := func(src *ir.Program, kind oracle.InputKind, rngSeed int64) {
		var out *ir.Program
		t.call(spanTOM, sp, seed, func() { out, _ = mutation.TypeOverwriting(src, b, rand.New(rand.NewSource(rngSeed))) })
		t.counts.tomCalls++
		if out != nil {
			t.counts.tomApplied++
			u.inputs = append(u.inputs, replayInput{kind: kind, prog: out})
		}
	}
	tom(base, oracle.TOMMutant, seed)
	tom(tem, oracle.TEMTOMMutant, seed^0x5bd1e995)
	var rem *ir.Program
	t.call(spanREM, sp, seed, func() { rem, _ = mutation.ResolutionMutation(base, b, rand.New(rand.NewSource(seed^0x9e3779b9))) })
	t.counts.remCalls++
	if rem != nil {
		t.counts.remApplied++
		u.inputs = append(u.inputs, replayInput{kind: oracle.REMMutant, prog: rem})
	}
}

// execute mirrors the Execute stage: every input through the harness,
// once per compiler.
func (t *tracedRun) execute(sp int, u *replayUnit, h *harness.Harness, targets []harness.Target) error {
	for i, in := range u.inputs {
		for _, tg := range targets {
			id := t.rec.begin(spanHarness, sp, u.seed)
			inv := h.Compile(withSpan(context.Background(), id), tg, in.prog, nil, harness.Key{Unit: u.seed, Input: i})
			t.rec.end(id)
			if inv.Result == nil {
				return fmt.Errorf("%s: replayed compile of unit %d by %s ended %s", t.w.name, u.seed, tg.Name(), inv.Outcome)
			}
			u.execs = append(u.execs, replayExec{compiler: tg.Name(), input: i, result: inv.Result})
		}
	}
	return nil
}

// judge mirrors the Judge stage under either oracle.
func (t *tracedRun) judge(sp int, u *replayUnit, differential bool) {
	if !differential {
		for i := range u.execs {
			e := &u.execs[i]
			e.verdict = oracle.Judge(u.inputs[e.input].kind, e.result)
		}
		return
	}
	for ii, in := range u.inputs {
		t.call(spanAnalyze, sp, u.seed, func() {
			var idxs []int
			var samples []difforacle.Sample
			lanes := map[int]difforacle.Lane{}
			for i := range u.execs {
				e := &u.execs[i]
				if e.input != ii {
					continue
				}
				lanes[i] = difforacle.Normalize(e.result)
				e.verdict = laneVerdict(lanes[i])
				idxs = append(idxs, i)
				samples = append(samples, difforacle.Sample{Compiler: e.compiler, Lane: lanes[i]})
			}
			an := difforacle.Analyze(samples)
			t.counts.diffInputs++
			if !an.Disagree {
				return
			}
			t.counts.diffDisagree++
			suspect := map[string]bool{}
			for _, s := range an.Suspects {
				suspect[s] = true
			}
			for _, i := range idxs {
				if lanes[i].Votes() && (len(an.Suspects) == 0 || suspect[u.execs[i].compiler]) {
					u.execs[i].verdict = oracle.Disagreement
				}
			}
		})
		if u.stress || !in.kind.ConformanceCheckable() {
			continue
		}
		for _, tr := range translate.All() {
			var src string
			t.call(spanRenderPfx+tr.Name()+".render", sp, u.seed, func() { src = render(tr, in.prog) })
			t.counts.renders++
			t.counts.renderBytes += len(src)
			t.call(spanConformance, sp, u.seed, func() { difforacle.Conforms(in.prog, src) })
		}
	}
}

// render renders p with one backend; a panicking backend renders
// nothing, as the conformance check sandboxes it.
func render(tr translate.Translator, p *ir.Program) (src string) {
	defer func() {
		if recover() != nil {
			src = ""
		}
	}()
	return tr.Translate(p)
}

// laneVerdict is the differential Judge's verdict for a lane before
// the vote: crash, hang and exhausted lanes are findings on their own.
func laneVerdict(l difforacle.Lane) oracle.Verdict {
	switch l {
	case difforacle.Crash:
		return oracle.CompilerCrash
	case difforacle.Hang:
		return oracle.CompilerHang
	case difforacle.Exhausted:
		return oracle.ResourceExhausted
	default:
		return oracle.Pass
	}
}

// aggregate folds the unit's verdicts and, for the durable workload,
// writes the campaign's own record for the unit to the journal with the
// campaign's fsync and snapshot cadence (the campaign also syncs once
// more when it finishes).
func (t *tracedRun) aggregate(sp int, u *replayUnit, seq int, verdicts map[string]map[oracle.InputKind]map[oracle.Verdict]int, dur *durableReplay) error {
	for _, e := range u.execs {
		perComp := verdicts[e.compiler]
		if perComp == nil {
			perComp = map[oracle.InputKind]map[oracle.Verdict]int{}
			verdicts[e.compiler] = perComp
		}
		kind := u.inputs[e.input].kind
		if perComp[kind] == nil {
			perComp[kind] = map[oracle.Verdict]int{}
		}
		perComp[kind][e.verdict]++
	}
	if dur == nil {
		return nil
	}
	var err error
	t.call(spanAppend, sp, u.seed, func() { err = dur.w.Append(dur.records[seq]) })
	if err != nil {
		return err
	}
	last := seq+1 == t.w.units
	if (seq+1)%dur.syncEvery == 0 || last {
		t.call(spanSync, sp, u.seed, func() { err = dur.w.Sync() })
		if err != nil {
			return err
		}
	}
	if (seq+1)%snapshotEvery == 0 || last {
		t.call(spanSnapshot, sp, u.seed, func() { err = dur.store.WriteSnapshot(int64(seq+1), dur.snapshot) })
	}
	return err
}

// probe times the layers the campaign only reaches from inside another
// layer's call: the type graph (built inside TEM and TOM) and the
// reference checker (run inside every compile, under the harness's
// per-compile budget). Caches start cold, as in the campaign.
func (t *tracedRun) probe(units []*replayUnit, hopts harness.Options) {
	isolate()
	b := types.NewBuiltins()
	for _, u := range units {
		base := u.inputs[0].prog
		if !u.stress && u.kind.Mutable() {
			var graphs map[string]*typegraph.Graph
			t.call(spanTypegraph, -1, u.seed, func() {
				graphs = typegraph.Analyze(ir.CloneProgram(base), u.builtins).BuildAll()
			})
			t.counts.graphs++
			for _, g := range graphs {
				t.counts.graphNodes += g.NumNodes()
				t.counts.graphEdges += g.NumEdges()
			}
		}
		for _, in := range u.inputs {
			t.call(spanChecker, -1, u.seed, func() {
				checker.Check(in.prog, b, checker.Options{Budget: governor.New(hopts.Fuel, hopts.MaxDepth)})
			})
		}
	}
}
