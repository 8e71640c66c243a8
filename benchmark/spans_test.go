package main

import (
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []Span{
		{Name: "fit", Start: at(0), End: at(100), Parent: -1},
		{Name: "temporal", Start: at(10), End: at(30), Parent: 0},
		{Name: "spatial", Start: at(20), End: at(50), Parent: 0},  // overlaps temporal: 10–50 counted once
		{Name: "other", Start: at(60), End: at(70), Parent: 2},    // grandchild: not a direct child
		{Name: "late", Start: at(90), End: at(130), Parent: 0},    // clipped to 90–100
		{Name: "before", Start: at(-20), End: at(-5), Parent: 0},  // entirely outside
		{Name: "sibling", Start: at(0), End: at(100), Parent: -1}, // another root
	}
	if got, want := selfTime(spans, 0), 50*time.Millisecond; got != want {
		t.Fatalf("self time %v, want %v", got, want)
	}
	if got := selfTime(spans, 6); got != 100*time.Millisecond {
		t.Fatalf("a span without children keeps its whole duration, got %v", got)
	}
	// Children covering more than the parent leave zero, never negative.
	full := []Span{
		{Start: at(0), End: at(10), Parent: -1},
		{Start: at(0), End: at(8), Parent: 0},
		{Start: at(5), End: at(20), Parent: 0},
	}
	if got := selfTime(full, 0); got != 0 {
		t.Fatalf("fully covered span: self time %v, want 0", got)
	}
}

func TestByName(t *testing.T) {
	t0 := time.Unix(0, 0)
	var r Recorder
	r.Add(Span{Name: "decode", Start: t0, End: t0.Add(2 * time.Millisecond), N: 64})
	r.Add(Span{Name: "decode", Start: t0, End: t0.Add(4 * time.Millisecond), N: 64})
	r.Add(Span{Name: "ingest_batch", Start: t0, End: t0.Add(time.Second), N: 64})
	ms, n := byName(r.Spans(), "decode")
	if ms.Len() != 2 || ms.Sum() != 6 || n != 128 {
		t.Fatalf("decode spans: %d, %g ms, %d records", ms.Len(), ms.Sum(), n)
	}
}
