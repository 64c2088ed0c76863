// Package metrics is the observability layer under long-running
// campaigns: counters, gauges, bounded-bucket latency histograms, a
// registry snapshotable to JSON, and a ring-buffered structured event
// trace, all stdlib-only and safe for concurrent use.
//
// The paper's nine-month campaign lived or died on being able to watch
// it run — bug-rate over time, per-compiler throughput, watchdog and
// breaker activity. The contract here is that watching never perturbs:
// every instrument is observation-only (nothing reads a metric to make
// a control decision), updates are lock-light atomics, and nothing in
// this package consumes randomness or influences scheduling, so a
// campaign's report is bit-for-bit identical with instrumentation on or
// off, at any worker count. Instruments carry unit sequence numbers
// rather than wall-clock ordering wherever determinism matters; only
// durations (which are explicitly non-deterministic, like the pipeline's
// busy times) record real time.
//
// All instrument methods tolerate nil receivers, and a nil *Registry
// hands out unregistered instruments, so call sites can wire metrics
// unconditionally and let a disabled configuration cost near nothing.
package metrics

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing count.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Load returns the current count.
func (c *Counter) Load() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a value that can move in both directions (queue depth,
// breaker state) or track a running maximum.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add moves the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// SetMax raises the gauge to v if v is larger than the current value.
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Load returns the current value.
func (g *Gauge) Load() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram accumulates observations into a bounded set of buckets,
// plus exact count, sum, min, and max. Buckets are fixed at
// construction, so memory stays constant over a months-long run.
type Histogram struct {
	bounds []int64 // ascending upper bounds; an implicit +Inf bucket follows
	counts []atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	min    atomic.Int64
	max    atomic.Int64
}

// DefaultLatencyBounds is the bucket layout used for durations when none
// is given: decades from 1µs to 10s with 1-2.5-5 subdivision, in
// nanoseconds.
func DefaultLatencyBounds() []int64 {
	var bounds []int64
	for decade := int64(1000); decade <= 10_000_000_000; decade *= 10 {
		bounds = append(bounds, decade, decade*5/2, decade*5)
	}
	return bounds
}

// defaultBounds is the DefaultLatencyBounds layout shared by every
// histogram built without bounds; histograms never write their bounds.
var defaultBounds = DefaultLatencyBounds()

// NewHistogram returns a histogram over the given ascending upper
// bounds; nil bounds mean DefaultLatencyBounds.
func NewHistogram(bounds []int64) *Histogram {
	if bounds == nil {
		bounds = defaultBounds
	}
	h := &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := sort.Search(len(h.bounds), func(i int) bool { return v <= h.bounds[i] })
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Bucket is one histogram bucket in a snapshot: the count of
// observations at or below the upper bound LE (nanoseconds for latency
// histograms); LE < 0 marks the +Inf bucket.
type Bucket struct {
	LE int64 `json:"le"`
	N  int64 `json:"n"`
}

// HistogramSnapshot is a point-in-time copy of a histogram. Empty
// buckets are omitted.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Min     int64    `json:"min"`
	Max     int64    `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Mean returns the average observation, 0 when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	if s.Count > 0 {
		s.Min = h.min.Load()
		s.Max = h.max.Load()
	}
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		le := int64(-1)
		if i < len(h.bounds) {
			le = h.bounds[i]
		}
		s.Buckets = append(s.Buckets, Bucket{LE: le, N: n})
	}
	return s
}

// Registry names and holds instruments. Instrument lookups are
// create-or-get: two callers asking for the same name share the
// instrument. A nil Registry hands out fresh unregistered instruments,
// so wiring can be unconditional.
//
// A Registry may be a scoped view of a larger one (see Scope): views
// share one instrument store, with each view prefixing the names it
// hands out and snapshotting only its own subtree. This is how a
// multi-tenant host gives every campaign the full instrument surface
// inside one per-tenant registry without name collisions.
type Registry struct {
	prefix string
	s      *registryState
}

// registryState is the instrument store shared by a registry and all
// its scoped views.
type registryState struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{s: &registryState{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
	}}
}

// Scope returns a view of the registry under prefix: instruments it
// creates are named "<prefix>.<name>" in the parent, and its Snapshot
// contains only that subtree (with the prefix stripped). Scopes nest,
// share the parent's store, and a nil registry scopes to nil.
func (r *Registry) Scope(prefix string) *Registry {
	if r == nil || prefix == "" {
		return r
	}
	return &Registry{prefix: r.prefix + prefix + ".", s: r.s}
}

// Counter returns the named counter, creating it if needed.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	name = r.prefix + name
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	c := r.s.counters[name]
	if c == nil {
		c = &Counter{}
		r.s.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	name = r.prefix + name
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	g := r.s.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.s.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram with the default latency
// bounds, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return NewHistogram(nil)
	}
	name = r.prefix + name
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	h := r.s.hists[name]
	if h == nil {
		h = NewHistogram(nil)
		r.s.hists[name] = h
	}
	return h
}

// Snapshot is a point-in-time JSON-marshalable copy of a registry.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot copies every instrument's current value. A scoped view
// snapshots only its own subtree, with the scope prefix stripped from
// the names.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	for name, c := range r.s.counters {
		if rel, ok := strings.CutPrefix(name, r.prefix); ok {
			s.Counters[rel] = c.Load()
		}
	}
	for name, g := range r.s.gauges {
		if rel, ok := strings.CutPrefix(name, r.prefix); ok {
			s.Gauges[rel] = g.Load()
		}
	}
	for name, h := range r.s.hists {
		if rel, ok := strings.CutPrefix(name, r.prefix); ok {
			s.Histograms[rel] = h.Snapshot()
		}
	}
	return s
}
