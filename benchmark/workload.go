package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"strconv"
	"time"

	"repro/internal/astopo"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/loadgen"
	"repro/internal/nn"
	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/trace"
)

// workload is one traffic mix. Every workload is an open loop at fixed
// rates chosen to keep the daemon well below saturation: a run measures
// latency and CPU at a fixed offered load, never a maximum rate.
type workload struct {
	name string

	targets  int     // target ASes in the stream (Zipf-skewed popularity)
	warmup   int     // records sent during setup, in batches of 64
	batch    int     // records per /ingest request in the measured phase
	rate     float64 // ingest records/s in the measured phase
	readRate float64 // /forecast reads/s in the measured phase
	reorder  float64 // share of records sent after their target's next record
	dup      float64 // share of records sent twice
	bursts   int     // targets with ground-truth attack bursts (0 = none)
	maxBots  int     // bot list cap per record (the magnitude signal)

	refitEvery int  // ddosd -refit-every
	detect     bool // ddosd -detect
}

// The ddosd configuration every workload shares: the default window, a
// WAL at interval fsync, and an accuracy window long enough to average
// over the whole run rather than its last moments.
const (
	window         = 256
	walFsync       = 50 * time.Millisecond
	accuracyWindow = 65536
)

// walSegmentBytes is large enough that no WAL segment rotates, and so no
// store checkpoint runs, during a run: a checkpoint stalls ingest for tens
// of milliseconds, and how many land in a run would decide its latency.
const walSegmentBytes = 1 << 30

// minWindow is serve's default MinWindow: a target's first fit waits for
// this many records.
const minWindow = 8

// warmBatch is the request size of the setup phase's warm-up.
const warmBatch = 64

// workloads: see README.md for why each exists and how its rates were
// chosen.
var workloads = []workload{
	// Ingest path only: no refit fires after setup.
	{
		name: "ingest", targets: 256, warmup: 16384, batch: 64, rate: 12800, readRate: 100, bursts: 8, maxBots: 32,
		refitEvery: 1 << 30, detect: true,
	},
	// Refit plane at the default model configuration.
	{
		name: "refit", targets: 64, warmup: 2048, batch: 1, rate: 100, readRate: 200, reorder: 0.02, dup: 0.01, maxBots: 256,
		refitEvery: 8,
	},
	// Forecast reads while refits swap snapshots underneath.
	{
		name: "read", targets: 256, warmup: 4096, batch: 1, rate: 50, readRate: 500, maxBots: 256,
		refitEvery: 8,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// daemonArgs renders the workload's ddosd configuration as flags; the WAL
// directory and listen address are added by the caller.
func (w workload) daemonArgs() []string {
	a := []string{
		"-refit-every", strconv.Itoa(w.refitEvery),
		"-window", strconv.Itoa(window),
		"-wal-fsync", walFsync.String(),
		"-accuracy-window", strconv.Itoa(accuracyWindow),
		"-wal-segment-bytes", strconv.Itoa(walSegmentBytes),
	}
	if w.detect {
		a = append(a, "-detect")
	}
	return a
}

// serveConfig mirrors what cmd/ddosd builds from daemonArgs(): the
// daemon's flag defaults for everything the workload does not set.
func (w workload) serveConfig() serve.Config {
	cfg := serve.Config{
		Shards:           64,
		Window:           window,
		RefitEvery:       w.refitEvery,
		QueueDepth:       256,
		Seed:             1,
		Spatial:          core.SpatialConfig{Train: nn.TrainConfig{Epochs: 120}},
		TraceCapacity:    64,
		AccuracyWindow:   accuracyWindow,
		MaxBatchBytes:    8 << 20,
		IncrementalRefit: true,
		FullRefitEvery:   8,
		DriftRatio:       4,
		PromoWindow:      64,
		PromoMinSamples:  16,
		PromoMargin:      0.05,
	}
	if w.detect {
		dc := detectConfig()
		cfg.Detect = &dc
	}
	return cfg
}

// detectConfig is ddosd's -detect default configuration.
func detectConfig() detect.Config {
	return detect.Config{Trigger: 4, Clear: 1.5, MinRate: 1, EntropyDrop: 0.3, AlertCap: 256}
}

// batch is one pre-encoded /ingest request body.
type batch struct {
	body    []byte
	targets []astopo.AS // target of each record, in body order
	dups    int         // records the daemon will drop as duplicates
	records int
}

// read is one scheduled /forecast request.
type read struct {
	as astopo.AS
	at time.Duration // from the start of the measured phase
}

// plan is a run's whole input, generated from the seed before the daemon
// starts, so the measured phase spends no generator CPU on it: one
// continuous record stream split into the warm-up and the measured
// phase, the /forecast target sequence, and the lag tracker's map from
// each target's accepted records to the batch that carried them.
type plan struct {
	warm     []batch
	measured []batch
	reads    []read
	// accepted maps each target's accepted records to the request that
	// carried them; requests are indexed over warm ++ measured.
	accepted *acceptLog
	// rank lists targets hottest first.
	rank []astopo.AS
	// warmTargets are the targets with a first fit during setup: at
	// least minWindow accepted warm-up records.
	warmTargets []astopo.AS
}

// stream wraps the repository's seeded attack generator with the
// workload's reorder and duplicate shares.
type stream struct {
	g       *loadgen.Generator
	rng     *rand.Rand
	reorder float64
	dup     float64
	held    map[astopo.AS]*trace.Attack
	out     []*trace.Attack
}

func newStream(w workload, seed uint64) *stream {
	cfg := loadgen.GenConfig{Targets: w.targets, Seed: seed, TimeCompress: 24, MaxBots: w.maxBots}
	if w.bursts > 0 {
		cfg.Burst = loadgen.BurstConfig{Every: 24 * time.Hour, Len: 10 * time.Minute, Gap: time.Second, Targets: w.bursts}
	}
	return &stream{
		g:       loadgen.NewGenerator(cfg),
		rng:     rand.New(rand.NewPCG(seed, 0x5eed)),
		reorder: w.reorder,
		dup:     w.dup,
		held:    map[astopo.AS]*trace.Attack{},
	}
}

// next returns the stream's next record. A reordered record is held back
// and sent right after its target's following record; a duplicated one
// is sent again right after itself (the daemon drops the copy).
func (s *stream) next() *trace.Attack {
	for len(s.out) == 0 {
		a := s.g.Next()
		if h := s.held[a.TargetAS]; h != nil {
			delete(s.held, a.TargetAS)
			s.out = append(s.out, a, h)
		} else if s.reorder > 0 && s.rng.Float64() < s.reorder {
			s.held[a.TargetAS] = a
			continue
		} else {
			s.out = append(s.out, a)
		}
		if s.dup > 0 && s.rng.Float64() < s.dup {
			s.out = append(s.out, s.out[len(s.out)-1])
		}
	}
	a := s.out[0]
	s.out = s.out[1:]
	return a
}

// makePlan generates a run's inputs for the given measured length.
func makePlan(w workload, seed uint64, seconds float64) (*plan, error) {
	s := newStream(w, seed)
	p := &plan{accepted: newAcceptLog(), rank: s.g.Targets()}
	var enc bytes.Buffer
	be := trace.NewBatchEncoder(&enc)
	build := func(idx, n int) (batch, error) {
		enc.Reset()
		be.Reset(&enc)
		b := batch{records: n, targets: make([]astopo.AS, n)}
		for i := 0; i < n; i++ {
			a := s.next()
			if err := be.Encode(a); err != nil {
				return b, err
			}
			b.targets[i] = a.TargetAS
			if p.accepted.add(a.TargetAS, a.ID, idx) {
				b.dups++
			}
		}
		b.body = append([]byte(nil), enc.Bytes()...)
		return b, nil
	}
	for n := 0; n < w.warmup; n += warmBatch {
		b, err := build(len(p.warm), min(warmBatch, w.warmup-n))
		if err != nil {
			return nil, err
		}
		p.warm = append(p.warm, b)
	}
	for _, as := range p.rank {
		if p.accepted.accepted(as) >= minWindow {
			p.warmTargets = append(p.warmTargets, as)
		}
	}
	nBatches := int(seconds * w.rate / float64(w.batch))
	for i := 0; i < nBatches; i++ {
		b, err := build(len(p.warm)+i, w.batch)
		if err != nil {
			return nil, err
		}
		p.measured = append(p.measured, b)
	}
	// Reads draw from the warm targets with the same Zipf skew as the
	// stream, so popular targets are read more often. They run on a grid
	// a hair (0.1%) slower than the read rate, so over a run they sweep
	// every point of the fixed ingest schedule. On a grid commensurate
	// with it, every read landed at the same point of the ingest
	// schedule, and whether it collided with an ingest request decided
	// the run's median; random arrival times instead bunched reads up to
	// queue on the read connection, and its median swung.
	if len(p.warmTargets) > 0 && w.readRate > 0 {
		zs := stats.NewSampler(seed ^ 0x7ead)
		z := stats.NewZipf(len(p.warmTargets), 1.1)
		slot := float64(time.Second) / w.readRate * 1.001
		p.reads = make([]read, int(seconds*float64(time.Second)/slot))
		for i := range p.reads {
			p.reads[i] = read{as: p.warmTargets[z.Sample(zs)], at: time.Duration(float64(i) * slot)}
		}
	}
	return p, nil
}
