package campaign

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/apisynth"
	"repro/internal/compilers"
	"repro/internal/generator"
	"repro/internal/oracle"
)

// synthOptions interleaves API-driven synthesis with generation on a
// 1-in-2 cadence, the mixed-mode shape a -synth campaign runs.
func synthOptions(programs int) Options {
	o := smallOptions(programs)
	o.Synth = apisynth.Config{Every: 2}
	return o
}

func TestSynthCampaignProducesSynthesizedUnits(t *testing.T) {
	report := Run(synthOptions(40))
	if report.Err != nil {
		t.Fatal(report.Err)
	}
	// Every=2 claims odd seeds: exactly half the units are synthesized,
	// the rest generated.
	if n := report.ProgramsRun[oracle.Synthesized]; n != 20 {
		t.Errorf("synthesized programs run = %d, want 20", n)
	}
	if n := report.ProgramsRun[oracle.Generated]; n != 20 {
		t.Errorf("generated programs run = %d, want 20", n)
	}
	// Synthesized units are not mutable: mutants only derive from the
	// generated half.
	for _, kind := range []oracle.InputKind{oracle.TEMMutant, oracle.TOMMutant, oracle.TEMTOMMutant} {
		if n := report.ProgramsRun[kind]; n > 20 {
			t.Errorf("%s: %d mutants from 20 mutable units", kind, n)
		}
	}
	// Synthesized inputs are expected-to-compile, so the derivation
	// oracle can attribute bugs to them; a campaign this size reliably
	// catches the simulated compiler mis-rejecting API-heavy programs.
	synthBugs := 0
	for _, rec := range report.Found {
		if rec.FoundBy.Has(oracle.Synthesized) {
			synthBugs++
		}
	}
	if synthBugs == 0 {
		t.Error("no bug attributed to a synthesized input")
	}
	// Verdict bookkeeping must agree with the cadence.
	judged := 0
	for _, n := range report.Verdicts["groovyc"][oracle.Synthesized] {
		judged += n
	}
	if judged != 20 {
		t.Errorf("synthesized verdicts recorded = %d, want 20", judged)
	}
	// And the attribution label knows about the new kind.
	for id, rec := range report.Found {
		if rec.FoundBy.Has(oracle.Synthesized) && rec.FoundBy.Len() == 1 {
			if got := rec.Technique(); got != "Synthesized" {
				t.Errorf("%s: Technique() = %q, want Synthesized", id, got)
			}
		}
	}
}

func TestSynthCampaignDeterministicAcrossWorkerCounts(t *testing.T) {
	o1 := synthOptions(30)
	o1.Workers = 1
	o2 := synthOptions(30)
	o2.Workers = 8
	r1, r2 := Run(o1), Run(o2)
	if r1.Err != nil || r2.Err != nil {
		t.Fatal(r1.Err, r2.Err)
	}
	assertSameOutcome(t, "synth 1-vs-8 workers", r1, r2)
	// The acceptance bar is byte-identical report documents, not just
	// DeepEqual fields.
	d1, err := json.Marshal(r1.Doc())
	if err != nil {
		t.Fatal(err)
	}
	d2, err := json.Marshal(r2.Doc())
	if err != nil {
		t.Fatal(err)
	}
	if string(d1) != string(d2) {
		t.Errorf("synth report documents differ across worker counts:\n%s\nvs\n%s", d1, d2)
	}
	var doc ReportDoc
	if err := json.Unmarshal(d1, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.ProgramsRun[oracle.Synthesized.String()] != 15 {
		t.Errorf("report document programs_run = %v, want synthesized:15", doc.ProgramsRun)
	}
}

func TestSynthKillResumeDeterminism(t *testing.T) {
	golden := Run(synthOptions(30))
	if golden.Err != nil {
		t.Fatal(golden.Err)
	}
	for _, workers := range []int{1, 8} {
		o := synthOptions(30)
		o.Workers = workers
		o.StateDir = t.TempDir()
		o.SnapshotEvery = 4
		r := runWithKills(t, o, int64(7000+workers), 6, 150)
		assertSameOutcome(t, "synth kill-resume", golden, r)
	}
}

// TestSynthFingerprintCoversKnobs pins the synthesis knobs into the
// campaign fingerprint — a different cadence or corpus is a different
// campaign — while a disabled config must leave pre-synthesis state
// directories resumable (the fingerprint is unchanged).
func TestSynthFingerprintCoversKnobs(t *testing.T) {
	base := smallOptions(10)
	if fingerprint(base) != fingerprint(synthDisabled(base)) {
		t.Error("zero-value synth config perturbs the fingerprint")
	}
	enabled := smallOptions(10)
	enabled.Synth = apisynth.Config{Every: 2}
	if fingerprint(base) == fingerprint(enabled) {
		t.Error("fingerprint ignores synthesis being enabled")
	}
	cadence := smallOptions(10)
	cadence.Synth = apisynth.Config{Every: 3}
	if fingerprint(enabled) == fingerprint(cadence) {
		t.Error("fingerprint ignores the synthesis cadence")
	}
	corpusPath := smallOptions(10)
	corpusPath.Synth = apisynth.Config{Every: 2, Corpus: "other.json"}
	if fingerprint(enabled) == fingerprint(corpusPath) {
		t.Error("fingerprint ignores the corpus path")
	}
}

func synthDisabled(o Options) Options {
	o.Synth = apisynth.Config{}
	return o
}

func TestSynthResumeRejectsDifferentCadence(t *testing.T) {
	dir := t.TempDir()
	o := synthOptions(10)
	o.StateDir = dir
	if r := Run(o); r.Err != nil {
		t.Fatal(r.Err)
	}
	other := synthOptions(10)
	other.Synth.Every = 3
	other.StateDir = dir
	other.Resume = true
	r, err := RunContext(context.Background(), other)
	if err == nil || r.Err == nil {
		t.Fatal("resuming with a different synthesis cadence succeeded")
	}
}

// TestSynthCampaignBadCorpusFailsFast pins the error path: a corpus
// that cannot load is a configuration error reported before any unit
// runs, not a hang or a silent generated-only campaign.
func TestSynthCampaignBadCorpusFailsFast(t *testing.T) {
	o := synthOptions(10)
	o.Synth.Corpus = "/nonexistent/corpus.json"
	done := make(chan *Report, 1)
	go func() { done <- Run(o) }()
	select {
	case r := <-done:
		if r.Err == nil {
			t.Fatal("campaign with unloadable corpus reported no error")
		}
		if !strings.Contains(r.Err.Error(), "corpus") {
			t.Errorf("error does not name the corpus: %v", r.Err)
		}
		if r.ProgramsRun[oracle.Synthesized] != 0 {
			t.Error("units ran despite the corpus failing to load")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("bad-corpus campaign did not fail fast")
	}
}

// TestSynthCoverageAdvantage is the acceptance experiment: synthesized
// programs must reach probe sites a same-seed generated-only campaign
// does not — that is the reason the input kind exists.
func TestSynthCoverageAdvantage(t *testing.T) {
	cov := RunSynthCoverage(compilers.Kotlinc(), 25, 0, generator.DefaultConfig(), apisynth.Config{})
	if cov == nil {
		t.Fatal("experiment returned nothing")
	}
	if cov.SynthDelta.Lines+cov.SynthDelta.Funcs+cov.SynthDelta.Branches == 0 {
		t.Error("synthesis reached no probe sites beyond the generator baseline")
	}
	// The extra sites should concentrate where API walking aims:
	// inference and resolution.
	extra := 0
	for region, d := range cov.SynthByRegion {
		if strings.Contains(region, "inference") || strings.Contains(region, "resolve") {
			extra += d.Lines + d.Funcs + d.Branches
		}
	}
	if extra == 0 {
		t.Errorf("synthesis extra coverage misses inference/resolution regions: %+v", cov.SynthByRegion)
	}
	if !strings.Contains(cov.String(), "Synth change") {
		t.Errorf("report rendering:\n%s", cov)
	}
}

// TestSynthCorpusMergeAcrossKinds pins satellite coverage for the bug
// corpus: bugs found by synthesized inputs merge across campaigns, a
// bug found by different input kinds in different campaigns dedups to
// one entry, and MergeReport stays commutative with Synthesized in
// play.
func TestSynthCorpusMergeAcrossKinds(t *testing.T) {
	gen := Run(smallOptions(40))
	syn := Run(synthOptions(40))
	if gen.Err != nil || syn.Err != nil {
		t.Fatal(gen.Err, syn.Err)
	}
	corpus := NewCorpus()
	corpus.MergeReport(gen)
	corpus.MergeReport(syn)
	reversed := NewCorpus()
	reversed.MergeReport(syn)
	reversed.MergeReport(gen)
	if !reflect.DeepEqual(corpus, reversed) {
		t.Error("corpus merge is order-dependent with synthesized bugs")
	}
	synthOnly, overlap := 0, 0
	for id, rec := range syn.Found {
		if !rec.FoundBy.Has(oracle.Synthesized) {
			continue
		}
		synthOnly++
		e := corpus.Bugs[id]
		if e == nil {
			t.Errorf("merge lost synthesized bug %s", id)
			continue
		}
		if other, ok := gen.Found[id]; ok {
			// Same bug reached by different kinds in different
			// campaigns: one corpus entry, additive hits.
			overlap++
			if e.Hits != rec.Hits+other.Hits {
				t.Errorf("bug %s: hits not additive across kinds (%d vs %d+%d)",
					id, e.Hits, rec.Hits, other.Hits)
			}
			if e.Campaigns != 2 {
				t.Errorf("bug %s: Campaigns = %d, want 2", id, e.Campaigns)
			}
		}
	}
	if synthOnly == 0 {
		t.Error("no synthesized-origin bugs to exercise the merge")
	}
	if overlap == 0 {
		t.Error("no bug found by both campaigns — dedup across kinds unexercised")
	}
}

// TestSynthStatusAndHeartbeatSurfaceKinds pins satellite coverage for
// observability: Status carries per-kind unit counts and the heartbeat
// line surfaces the synthesized count, on both the CLI and SSE surfaces
// (which render through the same function).
func TestSynthStatusAndHeartbeatSurfaceKinds(t *testing.T) {
	o := synthOptions(20)
	c := New(o)
	if err := c.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	s := c.Status()
	if s.Kinds[oracle.Synthesized.String()] != 10 {
		t.Errorf("Status.Kinds = %v, want synthesized:10", s.Kinds)
	}
	if s.Kinds[oracle.Generated.String()] != 10 {
		t.Errorf("Status.Kinds = %v, want generator:10", s.Kinds)
	}
	line := HeartbeatLine(Status{}, s, time.Second)
	if !strings.Contains(line, "synth 10") {
		t.Errorf("heartbeat does not surface the synthesized count: %q", line)
	}
	// A campaign with no synthesized units keeps the historical line
	// format byte-for-byte.
	plain := HeartbeatLine(Status{}, Status{Units: 7, Execs: 84, Bugs: 3}, time.Second)
	if strings.Contains(plain, "synth") {
		t.Errorf("synth leaked into a generated-only heartbeat: %q", plain)
	}
}

// TestGenConfigClampRecordedInFingerprint pins the clamp bugfix: the
// generator clamps degenerate config values up to workable minimums,
// and the campaign fingerprint must hash those effective values — an
// out-of-range config and its clamped form are the same campaign, so a
// state dir written under one resumes under the other.
func TestGenConfigClampRecordedInFingerprint(t *testing.T) {
	raw := smallOptions(10)
	raw.GenConfig.MaxDepth = 0      // clamps to 2
	raw.GenConfig.MaxTypeParams = 0 // clamps to 1
	raw.GenConfig.MaxLocals = -3    // clamps to 1
	clamped := smallOptions(10)
	clamped.GenConfig = raw.GenConfig.Normalized()
	if fingerprint(raw) != fingerprint(clamped) {
		t.Error("fingerprint distinguishes a config from its clamped form")
	}

	// End to end: a campaign journaled under the raw config resumes
	// under the explicitly clamped one, to the same report.
	dir := t.TempDir()
	o := raw
	o.StateDir = dir
	first := Run(o)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	re := clamped
	re.StateDir = dir
	re.Resume = true
	again := Run(re)
	if again.Err != nil {
		t.Fatalf("resume under clamped config rejected: %v", again.Err)
	}
	assertSameOutcome(t, "clamped-config resume", first, again)

	// And both behave like the in-range config they clamp to: the
	// generator's output is a function of effective values only.
	direct := clamped
	direct.StateDir = ""
	assertSameOutcome(t, "raw-vs-normalized run", Run(direct), first)
}
