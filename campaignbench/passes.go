package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/campaign"
	metricsreg "repro/internal/metrics"
	"repro/internal/types"
)

// runtimeSample is a point-in-time read of the runtime counters a pass
// is charged with.
type runtimeSample struct {
	allocBytes, allocObjects uint64
	gcCycles                 uint64
	gcCPU, totalCPU, idleCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeSample {
	samples := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	return runtimeSample{
		allocBytes:   samples[0].Value.Uint64(),
		allocObjects: samples[1].Value.Uint64(),
		gcCycles:     samples[2].Value.Uint64(),
		gcCPU:        samples[3].Value.Float64(),
		totalCPU:     samples[4].Value.Float64(),
		idleCPU:      samples[5].Value.Float64(),
	}
}

// passResult is what one timed campaign pass measured.
type passResult struct {
	workers int
	units   int
	// setup is the time from the start of the pass to the campaign's
	// first Options.Gate call: config projection, compiler and corpus
	// construction, state-directory reset, pipeline start.
	setup time.Duration
	// wall is the time from the start of the pass to campaign.Run's
	// return, setup included.
	wall time.Duration
	// allocBytes, allocObjects and gcCycles are deltas over the pass;
	// gcCPU and usedCPU are the runtime's estimates of GC CPU time and
	// of all non-idle CPU time over the pass.
	allocBytes, allocObjects, gcCycles uint64
	gcCPU, usedCPU                     float64
	// peakMemory is the most memory the runtime held during the pass.
	peakMemory uint64
	// steal is the processor time the hypervisor took from this
	// machine during the pass; zero where the system does not report it.
	steal  time.Duration
	report *campaign.Report
	// reg holds the campaign's instruments; nil when not instrumented.
	reg *metricsreg.Registry
	doc []byte
	// cacheHits and cacheMisses are the types memo-cache counters over
	// the pass.
	cacheHits, cacheMisses uint64
}

// isolate gives the next timed pass the state a fresh campaign process
// starts from: cold memo caches, a collected heap, and its memory
// returned to the operating system.
func isolate() {
	types.ResetCaches()
	debug.FreeOSMemory()
}

// memSampler tracks the peak of the memory the Go runtime holds from the
// operating system (mapped minus released), sampled every few
// milliseconds while a pass runs.
type memSampler struct {
	stop, done chan struct{}
	peak       uint64
}

func residentBytes() uint64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}, {Name: "/memory/classes/heap/released:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64() - s[1].Value.Uint64()
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{}), peak: residentBytes()}
	go func() {
		defer close(m.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if b := residentBytes(); b > m.peak {
					m.peak = b
				}
			case <-m.stop:
				return
			}
		}
	}()
	return m
}

// finish stops the sampler and returns the peak it saw.
func (m *memSampler) finish() uint64 {
	close(m.stop)
	<-m.done
	if b := residentBytes(); b > m.peak {
		m.peak = b
	}
	return m.peak
}

// stolen returns the processor time the hypervisor has taken from this
// machine since boot, summed over processors: the steal column of
// /proc/stat, in USER_HZ (100 a second) ticks. It is zero where the
// system does not report it.
func stolen() time.Duration {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * 10 * time.Millisecond
}

// runPass runs one campaign of the workload with the given worker count
// and base seed. stateDir is empty for non-durable workloads and must
// be a fresh directory otherwise; reg, when set, receives the
// campaign's instruments.
func runPass(w workload, workers int, seed int64, stateDir string, reg *metricsreg.Registry) (*passResult, error) {
	isolate()
	mem := startMemSampler()
	before := readRuntime()
	var once sync.Once
	var firstGate time.Time
	stealBefore := stolen()
	start := time.Now()

	opts, err := w.options(seed, workers, stateDir, false)
	if err != nil {
		return nil, err
	}
	opts.Metrics = reg
	opts.Gate = func(context.Context) error {
		once.Do(func() { firstGate = time.Now() })
		return nil
	}
	report := campaign.Run(opts)
	wall := time.Since(start)
	steal := stolen() - stealBefore

	after := readRuntime()
	peak := mem.finish()
	hits, misses := types.CacheStats()
	if !report.Complete() {
		return nil, fmt.Errorf("%s: campaign at %d workers incomplete: %v", w.name, workers, report.Err)
	}
	if firstGate.IsZero() {
		return nil, fmt.Errorf("%s: campaign never admitted a unit", w.name)
	}
	doc, err := json.Marshal(report.Doc())
	if err != nil {
		return nil, err
	}
	return &passResult{
		workers:      workers,
		units:        w.units,
		setup:        firstGate.Sub(start),
		wall:         wall,
		allocBytes:   after.allocBytes - before.allocBytes,
		allocObjects: after.allocObjects - before.allocObjects,
		gcCycles:     after.gcCycles - before.gcCycles,
		gcCPU:        after.gcCPU - before.gcCPU,
		usedCPU:      (after.totalCPU - after.idleCPU) - (before.totalCPU - before.idleCPU),
		peakMemory:   peak,
		steal:        steal,
		report:       report,
		reg:          reg,
		doc:          doc,
		cacheHits:    hits,
		cacheMisses:  misses,
	}, nil
}

// runResume resumes the finished state directory of a durable pass and
// returns the resume time and the resumed report's document.
func runResume(w workload, workers int, seed int64, stateDir string) (time.Duration, []byte, error) {
	isolate()
	start := time.Now()
	opts, err := w.options(seed, workers, stateDir, true)
	if err != nil {
		return 0, nil, err
	}
	report := campaign.Run(opts)
	elapsed := time.Since(start)
	if !report.Complete() {
		return 0, nil, fmt.Errorf("%s: resume incomplete: %v", w.name, report.Err)
	}
	if report.Recovery.Recovered != w.units {
		return 0, nil, fmt.Errorf("%s: resume restored %d of %d units", w.name, report.Recovery.Recovered, w.units)
	}
	doc, err := json.Marshal(report.Doc())
	return elapsed, doc, err
}

// faultCounts returns the compiles attempted and failed in a report:
// failed compiles are gaps (errored or quarantined) plus watchdog
// timeouts.
func faultCounts(r *campaign.Report) (attempted, failed int) {
	for _, rec := range r.Faults.PerCompiler {
		attempted += rec.Compiles
		failed += rec.Gaps() + rec.Timeouts
	}
	return attempted, failed
}

// faultTotals sums faultCounts over every timed pass of a run.
func faultTotals(reps []*repetition) (attempted, failed int) {
	for _, r := range reps {
		for _, p := range []*passResult{r.w1, r.wn} {
			a, f := faultCounts(p.report)
			attempted += a
			failed += f
		}
	}
	return attempted, failed
}

// findings is the campaign's yield: distinct bugs under the
// ground-truth oracle, distinct disagreements under the differential
// one.
func findings(r *campaign.Report) int {
	if r.Opts.Oracle == campaign.Differential {
		return len(r.Disagreements)
	}
	return r.TotalFound()
}

// checkPair is the output check of one repetition: both passes ran to
// completion with no failed compile, and their report documents are
// byte-identical.
func checkPair(w workload, a, b *passResult) error {
	if !bytes.Equal(a.doc, b.doc) {
		return fmt.Errorf("%s: report at %d workers differs from report at %d workers", w.name, a.workers, b.workers)
	}
	for _, p := range []*passResult{a, b} {
		if _, failed := faultCounts(p.report); failed != 0 {
			return fmt.Errorf("%s: %d failed compiles at %d workers", w.name, failed, p.workers)
		}
	}
	return nil
}

// newStateDir makes a fresh state directory under root.
func newStateDir(root string) (string, error) {
	return os.MkdirTemp(root, "state-")
}
