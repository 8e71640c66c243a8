package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/astopo"
)

// Refit lag: the time from sending a target's newest included record to
// the fitted_at of the model generation that includes it.
//
// The daemon counts a target's accepted records (duplicates excluded) and
// stamps each generation with that count as "observations". A
// generation's newest included record is therefore the target's
// observations-th accepted record. acceptLog predicts, while the inputs
// are generated, which sends the daemon will drop as duplicates (an
// attack ID sent before), so a re-sent record never shifts the count;
// the run checks the prediction against the duplicate counts the daemon
// acknowledges.

// acceptLog maps each target's accepted records to the request (batch
// index) that carried them.
type acceptLog struct {
	sent        []bool // by attack ID; the generator numbers records densely from 1
	recordBatch map[astopo.AS][]int32
	dups        int
}

func newAcceptLog() *acceptLog {
	return &acceptLog{recordBatch: map[astopo.AS][]int32{}}
}

// add records one send of attack id for target as in request b and
// reports whether the daemon will drop it as a duplicate. Records of one
// target must be added in the order the daemon applies them.
func (l *acceptLog) add(as astopo.AS, id int, b int) (dup bool) {
	if id < len(l.sent) && l.sent[id] {
		l.dups++
		return true
	}
	if id >= len(l.sent) {
		l.sent = append(l.sent, make([]bool, id+1-len(l.sent))...)
	}
	l.sent[id] = true
	l.recordBatch[as] = append(l.recordBatch[as], int32(b))
	return false
}

// accepted is the number of records the daemon holds for as.
func (l *acceptLog) accepted(as astopo.AS) int { return len(l.recordBatch[as]) }

// lagTracker turns /forecast readings into refit-lag samples. markSent
// and observe may run on different goroutines.
type lagTracker struct {
	log    *acceptLog
	sentAt []atomic.Int64 // unix nanoseconds each request was sent
	seen   map[genKey]bool
}

type genKey struct {
	as  astopo.AS
	gen uint64
}

func newLagTracker(log *acceptLog, requests int) *lagTracker {
	return &lagTracker{log: log, sentAt: make([]atomic.Int64, requests), seen: map[genKey]bool{}}
}

// markSent stamps request b's send time.
func (t *lagTracker) markSent(b int, at time.Time) { t.sentAt[b].Store(at.UnixNano()) }

// reset forgets the generations seen (a new daemon numbers them afresh).
func (t *lagTracker) reset() { t.seen = map[genKey]bool{} }

// observe takes one /forecast reading. The first time a (target,
// generation) pair is seen it returns the generation's lag and true;
// repeats return false. A generation that includes more records than
// were accepted, or records not yet sent, is an error: the daemon's
// count and the benchmark's disagree.
func (t *lagTracker) observe(as astopo.AS, gen, observations uint64, fittedAt time.Time) (time.Duration, bool, error) {
	k := genKey{as, gen}
	if t.seen[k] {
		return 0, false, nil
	}
	t.seen[k] = true
	batches := t.log.recordBatch[as]
	if observations == 0 || observations > uint64(len(batches)) {
		return 0, false, fmt.Errorf("AS%d generation %d includes %d records, %d were accepted", as, gen, observations, len(batches))
	}
	ns := t.sentAt[batches[observations-1]].Load()
	if ns == 0 {
		return 0, false, fmt.Errorf("AS%d generation %d includes a record that was never sent", as, gen)
	}
	return fittedAt.Sub(time.Unix(0, ns)), true, nil
}
