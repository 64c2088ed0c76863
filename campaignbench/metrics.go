package main

import "sort"

// median returns the median of xs; 0 for an empty slice.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// endToEnd derives the end-to-end metrics from a run's repetitions,
// and beside them the figures the output check bounds (failed compiles)
// or that exist on one workload only (resume time), which are printed
// but not gated.
//
// Throughput is units over wall time summed across the run's blocks,
// each block at one worker count charged with one of its timings (see
// charged): per-unit cost is heavy-tailed (a few programs dominate
// mutation time), and a ratio of totals weighs every unit once where a
// median of per-pass rates would not. Set-up time and peak memory are
// medians over passes; allocation and GC figures are totals over every
// pass divided by the units they ran.
func endToEnd(reps []*repetition) (gated, info map[string]metric) {
	var setups, peaks, resumes, found []float64
	var units, allocBytes, allocObjects uint64
	var gcCPU, usedCPU float64
	type block struct {
		units            int
		passes1, passesN []*passResult
	}
	blocks := map[int64]*block{}
	for _, r := range reps {
		b := blocks[r.seed]
		if b == nil {
			b = &block{units: r.w1.units}
			blocks[r.seed] = b
			found = append(found, float64(findings(r.wn.report)))
		}
		b.passes1 = append(b.passes1, r.w1)
		b.passesN = append(b.passesN, r.wn)
		if r.resume > 0 {
			resumes = append(resumes, r.resume.Seconds())
		}
		for _, p := range []*passResult{r.w1, r.wn} {
			setups = append(setups, p.setup.Seconds())
			peaks = append(peaks, float64(p.peakMemory)/(1<<20))
			units += uint64(p.units)
			allocBytes += p.allocBytes
			allocObjects += p.allocObjects
			gcCPU += p.gcCPU
			usedCPU += p.usedCPU
		}
	}
	var blockUnits int
	var wall1, wallN float64
	for _, b := range blocks {
		blockUnits += b.units
		wall1 += charged(b.passes1)
		wallN += charged(b.passesN)
	}
	attempted, failed := faultTotals(reps)
	unitsPerS := float64(blockUnits) / wallN
	unitsPerSW1 := float64(blockUnits) / wall1
	gated = map[string]metric{
		"units_per_s":          {unitsPerS, "units/s"},
		"units_per_s_w1":       {unitsPerSW1, "units/s"},
		"parallel_speedup":     {ratio(unitsPerS, unitsPerSW1), "x"},
		"alloc_bytes_per_unit": {ratio(float64(allocBytes), float64(units)), "B"},
		"allocs_per_unit":      {ratio(float64(allocObjects), float64(units)), "count"},
		"gc_cpu_frac":          {ratio(gcCPU, usedCPU), "frac"},
		"peak_rss_mb":          {median(peaks), "MB"},
		"setup_s":              {median(setups), "s"},
	}
	info = map[string]metric{
		"bugs_found":  {mean(found), "count"},
		"failed_frac": {ratio(float64(failed), float64(attempted)), "frac"},
	}
	if len(resumes) > 0 {
		info["resume_s"] = metric{median(resumes), "s"}
	}
	return gated, info
}

// charged returns the wall time, in seconds, that a block is charged at
// one worker count, from its timings in the run's sweeps: the median of
// those during which the hypervisor took the least processor time from
// the machine. The shared host's contention comes in phases of seconds
// to minutes that slow every pass they cover, and the VM's steal time
// shows them; a timing taken outside them measures the campaign, not
// its neighbours. Where steal is not reported, or is equal, this is the
// median of all the timings.
func charged(timings []*passResult) float64 {
	least := timings[0].steal
	for _, p := range timings {
		least = min(least, p.steal)
	}
	var walls []float64
	for _, p := range timings {
		if p.steal == least {
			walls = append(walls, p.wall.Seconds())
		}
	}
	return median(walls)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
