package main

import (
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around
// the layer's public function (the program itself carries no benchmark
// instrumentation). Parent is the index of the enclosing span, or -1.
type Span struct {
	Name   string
	Start  time.Time
	End    time.Time
	Parent int
	// N is the work the call did (records, bytes): per-unit metrics
	// divide by it.
	N int
}

// Dur is the span's wall time.
func (s Span) Dur() time.Duration { return s.End.Sub(s.Start) }

// Recorder keeps spans in memory until the run ends. It is safe for
// concurrent use.
type Recorder struct {
	mu    sync.Mutex
	spans []Span
}

// Add records a finished span and returns its index.
func (r *Recorder) Add(s Span) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, s)
	return len(r.spans) - 1
}

// Spans returns a copy of every recorded span.
func (r *Recorder) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Span(nil), r.spans...)
}

// byName collects the durations (in ms) and the summed work of every span
// with the given name.
func byName(spans []Span, name string) (ms *Samples, work int) {
	ms = &Samples{}
	for _, s := range spans {
		if s.Name == name {
			ms.Add(float64(s.Dur()) / 1e6)
			work += s.N
		}
	}
	return ms, work
}

// selfTime is a span's duration minus the part of its interval that its
// children cover. Children are clipped to the parent's interval and
// overlapping children are counted once, so the result is never negative
// and never exceeds the span's duration.
func selfTime(spans []Span, parent int) time.Duration {
	p := spans[parent]
	type iv struct{ lo, hi time.Time }
	var kids []iv
	for _, s := range spans {
		if s.Parent != parent {
			continue
		}
		lo, hi := s.Start, s.End
		if lo.Before(p.Start) {
			lo = p.Start
		}
		if hi.After(p.End) {
			hi = p.End
		}
		if hi.After(lo) {
			kids = append(kids, iv{lo, hi})
		}
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].lo.Before(kids[j].lo) })
	var covered time.Duration
	var cur iv
	for i, k := range kids {
		switch {
		case i == 0:
			cur = k
		case !k.lo.After(cur.hi):
			if k.hi.After(cur.hi) {
				cur.hi = k.hi
			}
		default:
			covered += cur.hi.Sub(cur.lo)
			cur = k
		}
	}
	if len(kids) > 0 {
		covered += cur.hi.Sub(cur.lo)
	}
	return p.Dur() - covered
}
