package main

import (
	"compress/gzip"
	"context"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans are kept in memory for the
// whole run and written out when it ends.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root span
	Name   string `json:"name"`
	// Unit is the seed of the unit the call worked on.
	Unit int64 `json:"unit"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64 `json:"start"`
	End   int64 `json:"end"`
}

func (s *span) duration() time.Duration { return time.Duration(s.End - s.Start) }

// recorder collects spans. Begin and End may be called from any
// goroutine.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (r *recorder) begin(name string, parent int, unit int64) int {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Unit: unit, Start: now, End: now})
	return id
}

// end closes the span.
func (r *recorder) end(id int) {
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id].End = now
	r.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as a gzip-compressed JSON array at path.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	if err := json.NewEncoder(zw).Encode(r.snapshot()); err != nil {
		f.Close()
		return err
	}
	if err := zw.Close(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanKey carries the enclosing span's ID through a context, so a call
// made on another goroutine (a compile under the harness watchdog) can
// parent its span correctly.
type spanKey struct{}

func withSpan(ctx context.Context, id int) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) int {
	if id, ok := ctx.Value(spanKey{}).(int); ok {
		return id
	}
	return -1
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover. Overlapping children are
// counted once, and a child reaching outside its parent is clipped to
// it.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type interval struct{ lo, hi int64 }
		var ivs []interval
		for _, c := range children[i] {
			lo, hi := spans[c].Start, spans[c].End
			if lo < s.Start {
				lo = s.Start
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				ivs = append(ivs, interval{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, curLo, curHi int64
		started := false
		for _, iv := range ivs {
			switch {
			case !started:
				curLo, curHi, started = iv.lo, iv.hi, true
			case iv.lo > curHi:
				covered += curHi - curLo
				curLo, curHi = iv.lo, iv.hi
			case iv.hi > curHi:
				curHi = iv.hi
			}
		}
		if started {
			covered += curHi - curLo
		}
		out[i] = time.Duration(s.End - s.Start - covered)
	}
	return out
}
