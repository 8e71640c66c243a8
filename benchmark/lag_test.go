package main

import (
	"testing"
	"time"

	"repro/internal/astopo"
)

// Duplicates must not shift the record a generation's observation count
// points at: the k-th accepted record of a target is its k-th distinct
// attack ID, whatever was re-sent in between.
func TestLagMatchesGenerationsWithDuplicates(t *testing.T) {
	const a, b = astopo.AS(1), astopo.AS(2)
	l := newAcceptLog()
	sends := []struct {
		as    astopo.AS
		id    int
		batch int
		dup   bool
	}{
		{a, 1, 0, false},
		{a, 1, 1, true}, // re-sent in the next request
		{b, 2, 1, false},
		{a, 3, 2, false},
		{b, 2, 2, true},
		{a, 1, 3, true}, // an older record sent again
		{a, 4, 3, false},
	}
	for _, s := range sends {
		if got := l.add(s.as, s.id, s.batch); got != s.dup {
			t.Fatalf("send of id %d in batch %d: dup=%v, want %v", s.id, s.batch, got, s.dup)
		}
	}
	if l.dups != 3 || l.accepted(a) != 3 || l.accepted(b) != 1 {
		t.Fatalf("dups %d, accepted a=%d b=%d", l.dups, l.accepted(a), l.accepted(b))
	}

	lt := newLagTracker(l, 4)
	t0 := time.Unix(100, 0)
	for i := 0; i < 4; i++ {
		lt.markSent(i, t0.Add(time.Duration(i)*time.Second))
	}
	fit := t0.Add(10 * time.Second)
	// Generation 7 of a includes 2 records: ids 1 and 3, so its newest
	// record went out in batch 2.
	lag, fresh, err := lt.observe(a, 7, 2, fit)
	if err != nil || !fresh || lag != 8*time.Second {
		t.Fatalf("gen 7: lag %v fresh %v err %v, want 8s", lag, fresh, err)
	}
	if _, fresh, _ := lt.observe(a, 7, 2, fit); fresh {
		t.Fatal("a generation must be sampled once")
	}
	lag, _, err = lt.observe(a, 8, 3, fit) // id 4, batch 3
	if err != nil || lag != 7*time.Second {
		t.Fatalf("gen 8: lag %v err %v, want 7s", lag, err)
	}
	lag, _, err = lt.observe(b, 9, 1, fit) // id 2, batch 1
	if err != nil || lag != 9*time.Second {
		t.Fatalf("b gen 9: lag %v err %v, want 9s", lag, err)
	}
	// More records than were accepted means the counts disagree.
	if _, _, err := lt.observe(b, 10, 2, fit); err == nil {
		t.Fatal("a generation over the accepted count must be an error")
	}
	lt.reset()
	if _, fresh, _ := lt.observe(a, 7, 2, fit); !fresh {
		t.Fatal("reset must forget seen generations")
	}
}

func TestLagUnsentRecordIsAnError(t *testing.T) {
	l := newAcceptLog()
	l.add(5, 1, 0)
	l.add(5, 2, 1)
	lt := newLagTracker(l, 2)
	lt.markSent(0, time.Unix(1, 0))
	if _, _, err := lt.observe(5, 1, 2, time.Unix(2, 0)); err == nil {
		t.Fatal("a record whose request was never sent must be an error")
	}
}
