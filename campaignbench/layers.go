package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/campaign"
	metricsreg "repro/internal/metrics"
)

// compilerNames and backendNames are the compilers and translate
// backends whose per-call times are reported.
var (
	compilerNames = []string{"javac", "kotlinc", "groovyc"}
	backendNames  = []string{"java", "kotlin", "groovy"}
)

// spanStats groups a run's spans by name.
type spanStats struct {
	// calls holds each call's duration, self holds each call's self time.
	calls, self map[string][]float64
}

func groupSpans(spans []span) spanStats {
	self := selfTimes(spans)
	st := spanStats{calls: map[string][]float64{}, self: map[string][]float64{}}
	for i, s := range spans {
		st.calls[s.Name] = append(st.calls[s.Name], float64(s.duration()))
		st.self[s.Name] = append(st.self[s.Name], float64(self[i]))
	}
	return st
}

// per returns the q-quantile of a span's call durations in the unit
// scale (time.Millisecond for ms, time.Microsecond for us).
func (st spanStats) per(name string, q float64, scale time.Duration) float64 {
	return quantile(st.calls[name], q) / float64(scale)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// stageBusy returns a pass's busy time per pipeline stage.
func stageBusy(r *campaign.Report) map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, st := range r.Stats.Stages() {
		out[st.Name()] += st.Busy()
	}
	return out
}

// histogramTotals sums the count and sum of every histogram in snap
// whose name starts with prefix.
func histogramTotals(snap metricsreg.Snapshot, prefix string) (count, total int64) {
	for name, h := range snap.Histograms {
		if strings.HasPrefix(name, prefix) {
			count += h.Count
			total += h.Sum
		}
	}
	return count, total
}

func counterTotal(snap metricsreg.Snapshot, prefix string) int64 {
	var n int64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, prefix) {
			n += v
		}
	}
	return n
}

// finish derives the per-layer metrics from the replay's spans and
// counts and from the instruments of the campaign passes, and writes the
// spans to spanPath.
func (t *tracedRun) finish(reps []*repetition, spanPath string) (map[string]metric, error) {
	spans := t.rec.snapshot()
	if err := t.rec.write(spanPath); err != nil {
		return nil, err
	}
	st := groupSpans(spans)
	c := t.counts
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Pipeline shape at workers = nproc, and the campaign-side counters
	// of the serial passes.
	shares := map[string][]float64{}
	var maxQueue, resume, found, gcPerUnit, hitFrac, lookups []float64
	var units, fuelCount, fuelSum, exhausted, journalNs int64
	var aggBusy, serialWall time.Duration
	serialBusy := map[string]time.Duration{}
	for i, r := range reps {
		busy := stageBusy(r.wn.report)
		var total time.Duration
		for _, d := range busy {
			total += d
		}
		for _, s := range stageNames {
			shares[s] = append(shares[s], ratio(float64(busy[s]), float64(total)))
		}
		for _, sst := range r.wn.report.Stats.Stages() {
			if sst.Name() == "aggregate" {
				maxQueue = append(maxQueue, float64(sst.MaxQueue()))
			}
		}
		resume = append(resume, r.resume.Seconds())
		found = append(found, float64(findings(r.wn.report)))

		p := t.serial[i]
		units += int64(p.units)
		serialWall += p.wall
		gcPerUnit = append(gcPerUnit, ratio(float64(p.gcCycles), float64(p.units)))
		hitFrac = append(hitFrac, ratio(float64(p.cacheHits), float64(p.cacheHits+p.cacheMisses)))
		lookups = append(lookups, ratio(float64(p.cacheHits+p.cacheMisses), float64(p.units)))
		snap := p.reg.Snapshot()
		n, s := histogramTotals(snap, "harness.fuel_spent.")
		fuelCount += n
		fuelSum += s
		exhausted += counterTotal(snap, "harness.fuel_exhausted.")
		_, a := histogramTotals(snap, "campaign.journal.append_ns")
		_, y := histogramTotals(snap, "campaign.journal.sync_ns")
		journalNs += a + y
		for s, d := range stageBusy(p.report) {
			serialBusy[s] += d
		}
		aggBusy += stageBusy(p.report)["aggregate"]
	}
	for _, s := range stageNames {
		put("pipeline."+s+".busy_share", median(shares[s]), "frac")
	}
	put("pipeline.aggregate.max_queue", median(maxQueue), "count")

	put("generator.program_ms", st.per(spanGenerator, 0.5, time.Millisecond), "ms")
	put("generator.ir_nodes", ratio(float64(c.irNodes), float64(c.generated)), "count")
	put("apisynth.program_ms", st.per(spanSynth, 0.5, time.Millisecond), "ms")

	put("typegraph.build_ms", st.per(spanTypegraph, 0.5, time.Millisecond), "ms")
	put("typegraph.nodes", ratio(float64(c.graphNodes), float64(c.graphs)), "count")
	put("typegraph.edges", ratio(float64(c.graphEdges), float64(c.graphs)), "count")
	put("mutation.tem_ms", st.per(spanTEM, 0.5, time.Millisecond), "ms")
	put("mutation.tem_alloc_bytes", ratio(float64(c.temAllocBytes), float64(c.temCalls)), "B")
	put("mutation.tem_combinations", ratio(float64(c.temCombinations), float64(c.temCalls)), "count")
	put("mutation.tem_erased_per_candidate", ratio(float64(c.temErased), float64(c.temCandidates)), "frac")
	put("mutation.tom_ms", st.per(spanTOM, 0.5, time.Millisecond), "ms")
	put("mutation.tom_applied_frac", ratio(float64(c.tomApplied), float64(c.tomCalls)), "frac")
	put("mutation.rem_ms", st.per(spanREM, 0.5, time.Millisecond), "ms")
	put("mutation.rem_applied_frac", ratio(float64(c.remApplied), float64(c.remCalls)), "frac")

	put("checker.check_us", st.per(spanChecker, 0.5, time.Microsecond), "us")
	for _, name := range compilerNames {
		span := spanCompilePfx + name + ".compile"
		put("compilers."+name+".compile_us", st.per(span, 0.5, time.Microsecond), "us")
		put("compilers."+name+".compile_us_p99", st.per(span, 0.99, time.Microsecond), "us")
	}
	put("types.cache_hit_frac", median(hitFrac), "frac")
	put("types.cache_lookups_per_unit", median(lookups), "count")
	put("governor.fuel_per_compile", ratio(float64(fuelSum), float64(fuelCount)), "count")
	put("governor.exhausted_frac", ratio(float64(exhausted), float64(fuelCount)), "frac")
	put("harness.overhead_us", quantile(st.self[spanHarness], 0.5)/float64(time.Microsecond), "us")

	for _, name := range backendNames {
		put("translate."+name+".render_us", st.per(spanRenderPfx+name+".render", 0.5, time.Microsecond), "us")
	}
	put("translate.bytes_per_program", ratio(float64(c.renderBytes), float64(c.renders)), "B")
	put("difforacle.conformance_us", st.per(spanConformance, 0.5, time.Microsecond), "us")
	put("difforacle.disagree_frac", ratio(float64(c.diffDisagree), float64(c.diffInputs)), "frac")

	put("journal.append_us", st.per(spanAppend, 0.5, time.Microsecond), "us")
	put("journal.append_us_p99", st.per(spanAppend, 0.99, time.Microsecond), "us")
	put("journal.sync_us", st.per(spanSync, 0.5, time.Microsecond), "us")
	put("journal.sync_us_p99", st.per(spanSync, 0.99, time.Microsecond), "us")
	put("journal.bytes_per_unit", ratio(float64(c.journalBytes), float64(c.units)), "B")
	fold := 0.0
	if t.w.durable {
		fold = ratio(float64(aggBusy)-float64(journalNs), float64(units)) / float64(time.Microsecond)
	}
	put("campaign.fold_us", fold, "us")
	put("campaign.resume_s", median(resume), "s")
	put("campaign.bugs_found", mean(found), "count")

	put("runtime.gc_cycles_per_unit", median(gcPerUnit), "count")
	put("trace.overhead_frac", ratio(float64(t.replayWall), float64(serialWall))-1, "frac")

	// Accounting: the replay's stage spans cover the same work as the
	// serial passes' stage busy time.
	var replayStages, campaignStages float64
	for _, s := range stageNames {
		r, cb := sum(st.calls[s]), float64(serialBusy[s])
		replayStages += r
		campaignStages += cb
		fmt.Fprintf(os.Stderr, "accounting %-9s replay %10.1f ms  campaign busy %10.1f ms\n", s, r/1e6, cb/1e6)
	}
	put("trace.accounted_frac", ratio(replayStages, campaignStages), "frac")
	return m, nil
}
