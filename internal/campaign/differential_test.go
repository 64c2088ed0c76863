package campaign

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"repro/internal/bugs"
	"repro/internal/compilers"
	"repro/internal/difforacle"
	"repro/internal/generator"
	"repro/internal/oracle"
	"repro/internal/pipeline"
	"repro/internal/types"
)

// diffOptions is a differential-oracle campaign over all three
// simulated compilers — disagreement needs at least two lanes.
func diffOptions(programs int) Options {
	o := smallOptions(programs)
	o.Compilers = compilers.All()
	o.Oracle = Differential
	return o
}

// rebuildUnit replays the Generate and Mutate stages for a seed exactly
// as the campaign pipeline runs them, so a test can recompute what any
// unit's inputs were from a report's FirstSeed alone.
func rebuildUnit(t *testing.T, seed int64) *pipeline.Unit {
	t.Helper()
	u := &pipeline.Unit{Seed: seed, Kind: oracle.Generated}
	gen := &pipeline.Generate{Config: generator.DefaultConfig()}
	mut := &pipeline.Mutate{TEM: true, TOM: true, TEMTOM: true, REM: true}
	if err := gen.Run(context.Background(), u); err != nil {
		t.Fatalf("seed %d: generate stage: %v", seed, err)
	}
	if err := mut.Run(context.Background(), u); err != nil {
		t.Fatalf("seed %d: mutate stage: %v", seed, err)
	}
	return u
}

// diffSamples compiles one input with every compiler and normalizes the
// results into a verdict vector.
func diffSamples(comps []*compilers.Compiler, in pipeline.Input) []difforacle.Sample {
	samples := make([]difforacle.Sample, len(comps))
	for i, c := range comps {
		samples[i] = difforacle.Sample{
			Compiler: c.Name(),
			Lane:     difforacle.Normalize(c.Compile(in.Prog, nil)),
		}
	}
	return samples
}

// TestDifferentialCampaignFindsDisagreements: the seeded catalogs
// differ across the three compilers, so a modest differential campaign
// must surface cross-compiler disagreements — and every attributed
// record must be independently re-derivable from its FirstSeed.
func TestDifferentialCampaignFindsDisagreements(t *testing.T) {
	report := Run(diffOptions(50))
	if report.Err != nil {
		t.Fatalf("differential campaign failed: %v", report.Err)
	}
	if len(report.Disagreements) == 0 {
		t.Fatal("differential campaign over three divergent catalogs found no disagreements")
	}

	comps := compilers.All()
	compilerSourced := 0
	for id, rec := range report.Disagreements {
		if rec.Translators {
			continue
		}
		compilerSourced++
		if rec.Vector != id {
			t.Errorf("%s: record keyed by %q, vector is %q", id, id, rec.Vector)
		}
		// Re-derive the finding from scratch: rebuild the unit the
		// campaign judged first, recompute the verdict vector for each
		// input kind the record claims, and check analysis agrees.
		u := rebuildUnit(t, rec.FirstSeed)
		matched := false
		for _, in := range u.Inputs {
			if !rec.FoundBy.Has(in.Kind) {
				continue
			}
			samples := diffSamples(comps, in)
			if difforacle.VectorString(samples) != rec.Vector {
				continue
			}
			matched = true
			an := difforacle.Analyze(samples)
			if !an.Disagree {
				t.Errorf("%s: recomputed vector does not disagree", id)
			}
			if len(an.Suspects) != len(rec.Suspects) {
				t.Errorf("%s: recomputed suspects %v, report says %v", id, an.Suspects, rec.Suspects)
			} else {
				for i := range an.Suspects {
					if an.Suspects[i] != rec.Suspects[i] {
						t.Errorf("%s: recomputed suspects %v, report says %v", id, an.Suspects, rec.Suspects)
						break
					}
				}
			}
		}
		if !matched {
			t.Errorf("%s: no input of seed %d reproduces the recorded vector", id, rec.FirstSeed)
		}
	}
	if compilerSourced == 0 {
		t.Error("all disagreements came from translator conformance; none from compiler vectors")
	}
}

// TestDifferentialURBSuspectAttribution pins the headline attribution
// case: a URB bug makes exactly one compiler silently accept an
// ill-typed TOM mutant that the other two reject, and the differential
// report must name that compiler — alone — as the suspect, found by the
// TOM lane. The seed is discovered by scanning with the same pipeline
// stages the campaign runs, so the test stays valid as catalogs evolve.
func TestDifferentialURBSuspectAttribution(t *testing.T) {
	comps := compilers.All()
	seed, suspect := int64(-1), ""
scan:
	for s := int64(0); s < 400; s++ {
		u := rebuildUnit(t, s)
		for _, in := range u.Inputs {
			if in.Kind != oracle.TOMMutant {
				continue
			}
			accepts, rejects := []string{}, 0
			urb := false
			for _, c := range comps {
				res := c.Compile(in.Prog, nil)
				switch difforacle.Normalize(res) {
				case difforacle.Accept:
					accepts = append(accepts, c.Name())
					for _, b := range res.Triggered {
						if b.Symptom == bugs.URB {
							urb = true
						}
					}
				case difforacle.Reject:
					rejects++
				default:
					continue scan // crash/hang lane would muddy attribution
				}
			}
			if len(accepts) == 1 && rejects == 2 && urb {
				seed, suspect = s, accepts[0]
				break scan
			}
		}
	}
	if seed < 0 {
		t.Fatal("no seed in [0,400) yields a 1-vs-2 URB acceptance split on a TOM mutant")
	}

	o := diffOptions(1)
	o.Seed = seed
	report := Run(o)
	if report.Err != nil {
		t.Fatalf("campaign at seed %d failed: %v", seed, report.Err)
	}
	found := false
	for _, rec := range report.Disagreements {
		if rec.Translators || !rec.FoundBy.Has(oracle.TOMMutant) {
			continue
		}
		if len(rec.Suspects) == 1 && rec.Suspects[0] == suspect {
			found = true
		}
	}
	if !found {
		t.Errorf("seed %d: report does not attribute the TOM disagreement to %s; records: %+v",
			seed, suspect, report.Disagreements)
	}
}

// TestDifferentialCampaignDeterministic is the differential oracle's
// determinism soak: the report document is byte-identical across worker
// counts and type-cache settings, because disagreements fold in unit
// order from per-unit records that never depend on scheduling.
func TestDifferentialCampaignDeterministic(t *testing.T) {
	prevCaching := types.CachingEnabled()
	defer types.SetCaching(prevCaching)

	run := func(caching bool, workers int) *Report {
		types.SetCaching(caching)
		types.ResetCaches()
		o := diffOptions(40)
		o.Workers = workers
		return Run(o)
	}
	docBytes := func(t *testing.T, r *Report, name string) []byte {
		t.Helper()
		if r.Err != nil {
			t.Fatalf("%s campaign failed: %v", name, r.Err)
		}
		b, err := json.Marshal(r.Doc())
		if err != nil {
			t.Fatalf("%s: marshal doc: %v", name, err)
		}
		return b
	}

	baseline := run(false, 1)
	if len(baseline.Disagreements) == 0 {
		t.Fatal("baseline differential campaign found no disagreements; soak proves nothing")
	}
	want := docBytes(t, baseline, "baseline")

	for _, tc := range []struct {
		name    string
		caching bool
		workers int
	}{
		{"cached-1-worker", true, 1},
		{"cached-8-workers", true, 8},
		{"uncached-8-workers", false, 8},
	} {
		got := docBytes(t, run(tc.caching, tc.workers), tc.name)
		if !bytes.Equal(want, got) {
			t.Errorf("%s: report doc differs from uncached single-worker baseline:\n%s\nvs\n%s",
				tc.name, want, got)
		}
	}
}

// TestDifferentialKillResumeDeterminism: disagreements survive the
// durability layer — journaled per-unit diff records replay and
// snapshot diff states restore into the same fold an uninterrupted run
// produces, through repeated kills, torn journals, and lost snapshots.
func TestDifferentialKillResumeDeterminism(t *testing.T) {
	golden := Run(diffOptions(30))
	if golden.Err != nil {
		t.Fatal(golden.Err)
	}
	if len(golden.Disagreements) == 0 {
		t.Fatal("golden differential run found no disagreements; resume test proves nothing")
	}
	want, err := json.Marshal(golden.Doc())
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 8} {
		o := diffOptions(30)
		o.Workers = workers
		o.StateDir = t.TempDir()
		o.SnapshotEvery = 4
		r := runWithKills(t, o, int64(2000+workers), 6, 120)
		got, err := json.Marshal(r.Doc())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Errorf("workers=%d: kill-resume differential doc diverged from golden:\n%s\nvs\n%s",
				workers, got, want)
		}
	}
}

// TestDifferentialChaosDeterministic: injected panics, hangs, and
// transients land in crash/hang lanes, which abstain — so under chaos
// the differential fold must still be byte-identical across worker
// counts, and fault-degraded lanes must never fabricate disagreements.
func TestDifferentialChaosDeterministic(t *testing.T) {
	run := func(workers int) *Report {
		o := chaosSoakOptions(25)
		o.Compilers = compilers.All()
		o.Oracle = Differential
		o.Workers = workers
		return Run(o)
	}
	r1, r8 := run(1), run(8)
	if r1.Err != nil || r8.Err != nil {
		t.Fatalf("chaos differential campaign did not complete: %v / %v", r1.Err, r8.Err)
	}
	b1, err := json.Marshal(r1.Doc())
	if err != nil {
		t.Fatal(err)
	}
	b8, err := json.Marshal(r8.Doc())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b8) {
		t.Errorf("chaos differential report differs between 1 and 8 workers:\n%s\nvs\n%s", b1, b8)
	}
}
