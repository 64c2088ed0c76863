// Command campaignbench is the repository's campaign benchmark. It runs
// one named workload in-process through cli.Config → campaign.Run, the
// path the CLIs and the server use, checks the campaign's outputs, and
// prints its metrics; the last line of standard output is one JSON
// object with the keys correct, attempted, failed and metrics. An
// output check that fails ends the run with a non-zero exit and no
// result line. From the repository root, run.sh builds and runs it:
//
//	bash campaignbench/run.sh --workload mutate-gt --seed 1 --seconds 40 --trace 0
//
// --trace 0 times pairs of passes (1 worker and workers = nproc, order
// alternating) over a sequence of seed blocks, times the same blocks
// twice more, and prints the end-to-end metrics. --trace 1
// additionally replays each repetition's units through the layers'
// public functions with in-memory spans and prints the per-layer
// metrics; the spans are written to the output directory when the run
// ends.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload to run: mutate-gt, diff-budget or synth-durable")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 40, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced replay and prints the per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "campaignbench"), "directory for state directories and span files")
	flag.Parse()

	w, err := lookupWorkload(*name)
	if err != nil {
		fail(err)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("need --seconds >= 1 and --trace 0 or 1"))
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail(err)
	}
	scratch, err := os.MkdirTemp(*out, "run-")
	if err != nil {
		fail(err)
	}
	res, info, err := run(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, scratch, *out)
	if rmErr := os.RemoveAll(scratch); rmErr != nil && err == nil {
		err = rmErr
	}
	if err != nil {
		fail(err)
	}
	printMetrics(res.Metrics)
	fmt.Println("not gated:")
	printMetrics(info)
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(line))
}

// printMetrics prints one aligned line per metric, sorted by name.
func printMetrics(ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-40s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
}

// fail reports an error and exits without printing a result line.
func fail(err error) {
	fmt.Fprintln(os.Stderr, "campaignbench:", err)
	os.Exit(1)
}

// sweeps is how many times an untraced run times each of its blocks.
const sweeps = 3

// run measures the workload for the given budget in sweeps over the
// same blocks. The first sweep runs new blocks while its share of the
// budget allows another cycle of average length (a cycle is one block
// per stratum, or one block for an unstratified workload), and at least
// two blocks and one whole cycle. The later sweeps run the same blocks
// again in the same order, so each block is timed once in each part of
// the run, and endToEnd charges it the timing least disturbed by the
// host (see charged). A traced run replays the first sweep's blocks and
// has no later sweeps. It returns the result and the ungated figures to
// print.
func run(w workload, seed int64, budget time.Duration, traced bool, scratch, out string) (*result, map[string]metric, error) {
	nproc := runtime.NumCPU()
	var tr *tracedRun
	sweep := budget / sweeps
	if traced {
		tr = newTracedRun(w)
		sweep = budget
	}
	cycle := max(len(w.strata), 1)
	more := func(rep int, elapsed time.Duration) bool {
		if rep < max(2, cycle) || rep%cycle != 0 {
			return true
		}
		return elapsed*time.Duration(rep+cycle)/time.Duration(rep) < sweep
	}
	measure := func(rep int) (*repetition, error) {
		r, err := runRepetition(w, seed, rep, nproc, scratch)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "block %d: %d units, 1 worker %.3fs (steal %.2fs), %d workers %.3fs (steal %.2fs)\n",
			r.seed, w.units, r.w1.wall.Seconds(), r.w1.steal.Seconds(), nproc, r.wn.wall.Seconds(), r.wn.steal.Seconds())
		if tr != nil {
			if err := tr.replay(r, scratch); err != nil {
				return nil, err
			}
		}
		if r.stateDir != "" {
			if err := os.RemoveAll(r.stateDir); err != nil {
				return nil, err
			}
		}
		return r, nil
	}
	var first []*repetition
	start := time.Now()
	for rep := 0; more(rep, time.Since(start)); rep++ {
		r, err := measure(rep)
		if err != nil {
			return nil, nil, err
		}
		first = append(first, r)
	}
	reps := first
	for i := 1; i < sweeps && !traced; i++ {
		for rep, f := range first {
			r, err := measure(rep)
			if err != nil {
				return nil, nil, err
			}
			if !bytes.Equal(r.wn.doc, f.wn.doc) {
				return nil, nil, fmt.Errorf("%s: repeated run of seed %d gave a different report", w.name, r.seed)
			}
			reps = append(reps, r)
		}
	}
	res := &result{Correct: true}
	res.Attempted, res.Failed = faultTotals(reps)
	gated, info := endToEnd(reps)
	if !traced {
		res.Metrics = gated
		return res, info, nil
	}
	m, err := tr.finish(first, filepath.Join(out, fmt.Sprintf("spans-%s-%d.json.gz", w.name, seed)))
	if err != nil {
		return nil, nil, err
	}
	res.Metrics = m
	return res, info, nil
}

// repetition is one pair of timed passes over the same units, plus the
// resume of the durable workload's finished state directory.
type repetition struct {
	seed   int64
	w1, wn *passResult
	// resume is zero for non-durable workloads.
	resume time.Duration
	// stateDir is the finished state directory of the workers = nproc
	// pass; empty for non-durable workloads.
	stateDir string
}

// runRepetition runs the 1-worker and the workers = nproc pass of one
// repetition, alternating which runs first so drift in machine load
// charges both equally, and checks their outputs.
func runRepetition(w workload, seed int64, rep, nproc int, scratch string) (*repetition, error) {
	r := &repetition{seed: w.blockSeed(seed, rep)}
	workers := [2]int{1, nproc}
	order := []int{0, 1}
	if rep%2 == 1 {
		order = []int{1, 0}
	}
	for _, i := range order {
		dir := ""
		if w.durable {
			var err error
			if dir, err = newStateDir(scratch); err != nil {
				return nil, err
			}
		}
		p, err := runPass(w, workers[i], r.seed, dir, nil)
		if err != nil {
			return nil, err
		}
		if i == 0 {
			r.w1 = p
			if dir != "" {
				if err := os.RemoveAll(dir); err != nil {
					return nil, err
				}
			}
		} else {
			r.wn = p
			r.stateDir = dir
		}
	}
	if err := checkPair(w, r.w1, r.wn); err != nil {
		return nil, err
	}
	if w.durable {
		d, doc, err := runResume(w, nproc, r.seed, r.stateDir)
		if err != nil {
			return nil, err
		}
		if string(doc) != string(r.wn.doc) {
			return nil, fmt.Errorf("%s: resumed report differs from the uninterrupted one (seed %d)", w.name, r.seed)
		}
		r.resume = d
	}
	return r, nil
}
