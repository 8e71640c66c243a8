package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/astopo"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/serve"
	"repro/internal/trace"
	"repro/internal/wal"
)

// The traced run serves the workload from an in-process serve.Service
// behind a loopback listener and drives it with the same open-loop
// traffic as the untraced run. The benchmark records spans around each
// layer's public functions itself — the program carries no benchmark
// instrumentation:
//
//   - /ingest is answered by tracedServer, which calls
//     trace.BatchDecoder.Decode and Service.IngestBatch and times both;
//   - Config.WrapFit times every refit and the wait from the ingest that
//     made the target due;
//   - after the measured phase, the store, detector, WAL, per-kind model
//     fits, Registry.Publish and Registry.Forecast are replayed on the
//     run's own inputs and timed call by call.
//
// A CPU profile of the measured phase attributes its samples to layers.

// fitRecord is one WrapFit call.
type fitRecord struct {
	span        Span
	wait        time.Duration // from the ingest that made the target due
	waited      bool
	err         bool
	incremental bool
	hadPrev     bool
}

// dueTracker mirrors the daemon's refit trigger closely enough to stamp
// when each target became due: after RefitEvery new records, or at
// minWindow records before its first fit.
type dueTracker struct {
	mu         sync.Mutex
	refitEvery int
	since      map[astopo.AS]int
	total      map[astopo.AS]int
	fitted     map[astopo.AS]bool
	dueAt      map[astopo.AS]time.Time
}

func newDueTracker(refitEvery int) *dueTracker {
	return &dueTracker{refitEvery: refitEvery, since: map[astopo.AS]int{}, total: map[astopo.AS]int{},
		fitted: map[astopo.AS]bool{}, dueAt: map[astopo.AS]time.Time{}}
}

func (d *dueTracker) ingested(recs []trace.Attack, at time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	for i := range recs {
		as := recs[i].TargetAS
		d.since[as]++
		d.total[as]++
		if _, ok := d.dueAt[as]; ok {
			continue
		}
		if (d.fitted[as] && d.since[as] >= d.refitEvery) || (!d.fitted[as] && d.total[as] >= minWindow) {
			d.dueAt[as] = at
		}
	}
}

// fitStarted returns the wait since the target became due.
func (d *dueTracker) fitStarted(as astopo.AS, at time.Time) (time.Duration, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	t, ok := d.dueAt[as]
	delete(d.dueAt, as)
	d.since[as] = 0
	if !ok {
		return 0, false
	}
	return at.Sub(t), true
}

// fitEnded resets the count as the daemon does when it marks the target
// refitted.
func (d *dueTracker) fitEnded(as astopo.AS) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.since[as] = 0
	d.fitted[as] = true
}

// tracedServer answers /ingest through the layers' public functions and
// everything else through the service's own handler.
type tracedServer struct {
	svc     *serve.Service
	rec     *Recorder
	due     *dueTracker
	decPool sync.Pool
	next    http.Handler
}

func (t *tracedServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/ingest" {
		t.next.ServeHTTP(w, r)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	dec, _ := t.decPool.Get().(*trace.BatchDecoder)
	if dec == nil {
		dec = trace.NewBatchDecoder()
	}
	defer t.decPool.Put(dec)
	t0 := time.Now()
	dec.Reset(bytes.NewReader(body))
	err = dec.Decode(10000)
	t1 := time.Now()
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	res, err := t.svc.IngestBatch(dec.Records(), dec.Payload)
	t2 := time.Now()
	n := dec.Len()
	t.rec.Add(Span{Name: "decode", Start: t0, End: t1, Parent: -1, N: n})
	t.rec.Add(Span{Name: "ingest_batch", Start: t1, End: t2, Parent: -1, N: n})
	t.due.ingested(dec.Records(), t1)
	status := http.StatusOK
	switch {
	case errors.Is(err, serve.ErrShedding):
		status = http.StatusTooManyRequests
	case err != nil:
		status = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	ack := serve.IngestResult{Ingested: res.Ingested, Duplicates: res.Duplicates}
	if err != nil {
		ack.Error = err.Error()
	}
	_ = json.NewEncoder(w).Encode(ack)
}

func runTraced(w workload, seed uint64, seconds float64, dir string) (*outcome, error) {
	p, err := makePlan(w, seed, seconds)
	if err != nil {
		return nil, err
	}
	lt := newLagTracker(p.accepted, len(p.warm)+len(p.measured))
	rec := &Recorder{}
	due := newDueTracker(w.refitEvery)

	var fitMu sync.Mutex
	var fits []fitRecord
	var fitFn serve.FitFunc
	var fitCfg serve.Config
	var svc *serve.Service
	cfg := w.serveConfig()
	cfg.WrapFit = func(f serve.FitFunc) serve.FitFunc {
		return func(as astopo.AS, window []trace.Attack, total, gen uint64, c serve.Config) (*serve.TargetModels, error) {
			start := time.Now()
			_, hadPrev := svc.Registry().Lookup(as)
			wait, waited := due.fitStarted(as, start)
			tm, err := f(as, window, total, gen, c)
			end := time.Now()
			due.fitEnded(as)
			fitMu.Lock()
			fitFn, fitCfg = f, c
			fits = append(fits, fitRecord{
				span: Span{Name: "fit", Start: start, End: end, Parent: -1, N: len(window)},
				wait: wait, waited: waited, err: err != nil, hadPrev: hadPrev,
				incremental: tm != nil && tm.Prov.Refit == "incremental",
			})
			fitMu.Unlock()
			return tm, err
		}
	}
	svc = serve.New(cfg)
	defer svc.Close()
	wl, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), SegmentBytes: walSegmentBytes, Sync: wal.SyncPolicy{Mode: wal.SyncInterval, Interval: walFsync}})
	if err != nil {
		return nil, err
	}
	defer wl.Close()
	if _, err := svc.RecoverWAL(wl, nil); err != nil {
		return nil, err
	}
	svc.AttachWAL(wl, slog.New(slog.DiscardHandler))
	defer svc.DetachWAL()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: &tracedServer{svc: svc, rec: rec, due: due, next: svc.Handler()}}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln)
	}()
	defer func() {
		_ = srv.Close()
		<-served
	}()
	url := "http://" + ln.Addr().String()

	t0 := time.Now()
	ic, rc := newClient(url), newClient(url)
	defer ic.close()
	defer rc.close()
	if err := sendWarmup(ic, p, lt); err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	setup := time.Since(t0)

	m0, err := rc.metrics()
	if err != nil {
		return nil, err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	ph := runPhase(ic, rc, w, p, lt, time.Now().Add(50*time.Millisecond))
	pprof.StopCPUProfile()
	out := &outcome{}
	out.check(rc.waitDrained(drainLimit) == nil, "refit backlog did not drain within %v", drainLimit)
	m1, err := rc.metrics()
	if err != nil {
		return nil, err
	}
	out.daemonProcs = int(m1.Get("ddosd_go_gomaxprocs"))
	checkPhase(out, p, ph, m0, m1)
	setLatency(out, "traced.", ph)
	acc, err := rc.accuracy()
	if err != nil {
		return nil, err
	}
	setAccuracy(out, acc)

	wall := ph.end.Sub(ph.start).Seconds()
	spans := rec.Spans()
	inPhase := func(s Span) bool { return !s.Start.Before(ph.start) && !s.Start.After(ph.end) }
	var phaseSpans []Span
	for _, s := range spans {
		if inPhase(s) {
			phaseSpans = append(phaseSpans, s)
		}
	}
	records := 0
	bodyBytes := 0
	for _, b := range p.measured {
		records += b.records
		bodyBytes += len(b.body)
	}
	decMS, decN := byName(phaseSpans, "decode")
	out.set("trace.decode_ns_per_rec", "ns", decMS.Sum()*1e6/float64(max(decN, 1)))
	out.set("trace.bytes_per_rec", "B", float64(bodyBytes)/float64(max(records, 1)))
	ibMS, ibN := byName(phaseSpans, "ingest_batch")
	out.set("serve.ingest_batch_us_p50", "us", ibMS.Quantile(0.5)*1e3)
	out.set("serve.ingest_batch_us_p99", "us", ibMS.Quantile(0.99)*1e3)

	// Refit-plane spans. On a workload whose measured phase fires no
	// refit, the setup's fits are reported instead.
	fitMu.Lock()
	allFits := append([]fitRecord(nil), fits...)
	fitMu.Unlock()
	var phaseFits []fitRecord
	for _, f := range allFits {
		if inPhase(f.span) {
			phaseFits = append(phaseFits, f)
		}
	}
	timed := phaseFits
	if len(timed) == 0 {
		timed = allFits
	}
	fitMS, waitMS := &Samples{}, &Samples{}
	for _, f := range timed {
		fitMS.Add(float64(f.span.Dur()) / 1e6)
		if f.waited {
			waitMS.Add(float64(f.wait) / 1e6)
		}
	}
	out.set("serve.fit_ms_p50", "ms", fitMS.Quantile(0.5))
	out.set("serve.fit_ms_p90", "ms", fitMS.Quantile(0.9))
	out.set("serve.sched_wait_ms_p50", "ms", waitMS.Quantile(0.5))
	out.set("serve.sched_wait_ms_p90", "ms", waitMS.Quantile(0.9))
	var refits, incr, attempts, errs int
	for _, f := range phaseFits {
		switch {
		case f.err:
			errs++
		case f.incremental:
			incr++
			refits++
		default:
			refits++
		}
		if f.hadPrev {
			attempts++
		}
	}
	out.set("serve.refits", "count", float64(refits))
	out.set("serve.refits_incremental", "count", float64(incr))
	out.set("serve.incremental_ratio", "ratio", float64(incr)/float64(max(attempts, 1)))
	out.set("serve.refit_errors", "count", float64(errs))
	out.set("serve.refit_lag_max", "count", float64(maxInt(ph.backlog)))

	// Scraped counters over the measured phase.
	acceptedRecs := Delta(m0, m1, "ddosd_ingest_records_total")
	out.set("serve.score_ns_per_rec", "ns", Delta(m0, m1, stageKey(serve.StageScore, "sum"))*1e9/max(acceptedRecs, 1))
	out.set("detect.alerts", "count", Delta(m0, m1, `ddosd_detect_alerts_total{kind="rate"}`)+
		Delta(m0, m1, `ddosd_detect_alerts_total{kind="source_concentration"}`))
	out.set("runtime.gc_per_s", "1/s", Delta(m0, m1, "ddosd_go_gc_cycles_total")/wall)
	out.set("runtime.heap_mb", "MB", m1.Get("ddosd_go_heap_alloc_bytes")/1e6)

	shares, profiled, err := cpuShares(prof.Bytes())
	if err != nil {
		return nil, err
	}
	for _, l := range cpuLayers {
		out.set("cpu."+l, "share", shares[l])
	}

	// Replays on the run's own inputs, after the measured phase.
	il, err := replayIngestLayers(w, seed, seconds, filepath.Join(dir, "replay-wal"))
	if err != nil {
		return nil, err
	}
	for k, v := range il {
		out.metrics[k] = v
	}
	if fitFn == nil {
		return nil, errors.New("no refit ran, so the fit path cannot be replayed")
	}
	kinds, err := replayFits(svc, fitFn, fitCfg, p)
	if err != nil {
		return nil, err
	}
	for k, v := range kinds {
		out.metrics[k] = v
	}
	replayRegistry(out, svc, p)

	perRec := out.metrics["trace.decode_ns_per_rec"].Value + out.metrics["serve.store_append_ns_per_rec"].Value +
		out.metrics["detect.observe_ns_per_rec"].Value + out.metrics["serve.score_ns_per_rec"].Value +
		out.metrics["wal.append_us_per_batch"].Value*1e3/float64(w.batch)
	// The daemon's own stage sums over the phase, per record: measured
	// live, where the replays above run alone with warm caches.
	stagePerRec := map[string]float64{}
	live := out.metrics["trace.decode_ns_per_rec"].Value
	for _, st := range []string{serve.StageAppend, serve.StageDetect, serve.StageWAL, serve.StageScore, serve.StageSchedule} {
		stagePerRec[st] = Delta(m0, m1, stageKey(st, "sum")) * 1e9 / max(acceptedRecs, 1)
		live += stagePerRec[st]
	}
	batchPerRec := out.metrics["serve.ingest_batch_us_p50"].Value * 1e3 / float64(w.batch)
	out.diag = map[string]any{
		"stage_ns_per_rec":     stagePerRec,
		"setup_s":              setup.Seconds(),
		"measured_s":           wall,
		"profiled_cpu_s":       profiled,
		"fits_in_phase":        len(phaseFits),
		"ingest_batch_spans":   ibMS.Len(),
		"ingest_batch_records": ibN,
		// The per-record layer times against IngestBatch's median per
		// record (decode sits outside IngestBatch, so these can exceed 1):
		// from the replays, and from the live stage sums.
		"layer_cover":      perRec / batchPerRec,
		"layer_cover_live": live / batchPerRec,
	}
	return out, nil
}

// replayCap bounds the measured-phase records the ingest layers replay.
const replayCap = 200000

// replayIngestLayers regenerates the run's record stream from the seed
// and times the store, the detector and the WAL on it, layer by layer:
// the warm-up records fill the windows untimed, then each measured
// request's records pass through Store.IngestScored, Detector.Observe
// and WAL.AppendBatch, with a WAL.Sync every fsync interval's worth of
// requests.
func replayIngestLayers(w workload, seed uint64, seconds float64, walDir string) (map[string]metric, error) {
	s := newStream(w, seed)
	store := serve.NewStore(64, window)
	det := detect.New(detectConfig())
	states := map[astopo.AS]*detect.State{}
	observe := func(a *trace.Attack) {
		st := states[a.TargetAS]
		if st == nil {
			st = det.NewState()
			states[a.TargetAS] = st
		}
		det.Observe(st, a)
	}
	for i := 0; i < w.warmup; i++ {
		a := s.next()
		store.IngestScored(a)
		observe(a)
	}
	lw, err := wal.Open(wal.Options{Dir: walDir, SegmentBytes: walSegmentBytes, Sync: wal.SyncPolicy{Mode: wal.SyncNever}})
	if err != nil {
		return nil, err
	}
	defer lw.Close()
	syncEvery := max(1, int(walFsync.Seconds()*w.rate/float64(w.batch)))
	n := min(int(seconds*w.rate), replayCap) / w.batch * w.batch
	var storeT, detT time.Duration
	walUS, syncMS := &Samples{}, &Samples{}
	walBytes := 0
	recs := make([]*trace.Attack, w.batch)
	payloads := make([][]byte, w.batch)
	for b := 0; b < n/w.batch; b++ {
		for i := range recs {
			recs[i] = s.next()
			payloads[i], err = trace.AppendRecord(payloads[i][:0], recs[i])
			if err != nil {
				return nil, err
			}
			walBytes += 8 + len(payloads[i])
		}
		t0 := time.Now()
		for _, a := range recs {
			store.IngestScored(a)
		}
		t1 := time.Now()
		for _, a := range recs {
			observe(a)
		}
		t2 := time.Now()
		if err := lw.AppendBatch(payloads); err != nil {
			return nil, err
		}
		t3 := time.Now()
		storeT += t1.Sub(t0)
		detT += t2.Sub(t1)
		walUS.Add(float64(t3.Sub(t2)) / 1e3)
		if (b+1)%syncEvery == 0 {
			t4 := time.Now()
			if err := lw.Sync(); err != nil {
				return nil, err
			}
			syncMS.Add(float64(time.Since(t4)) / 1e6)
		}
	}
	if n == 0 {
		return nil, errors.New("no records to replay")
	}
	return map[string]metric{
		"serve.store_append_ns_per_rec": {float64(storeT) / float64(n), "ns"},
		"detect.observe_ns_per_rec":     {float64(detT) / float64(n), "ns"},
		"wal.append_us_per_batch":       {walUS.Quantile(0.5), "us"},
		"wal.bytes_per_rec":             {float64(walBytes) / float64(n), "B"},
		"wal.sync_ms_p50":               {syncMS.Quantile(0.5), "ms"},
	}, nil
}

// replayTargets is how many of the hottest targets' windows the per-kind
// fit replay uses.
const replayTargets = 4

// tailLen is the records an incremental replay folds in: one refit's
// worth at the default -refit-every.
const tailLen = 8

// replayFits times the fit path per model kind on the hottest targets'
// current windows. Each window is split into a base and an 8-record
// tail. The service's own fit function refits the base in full (the
// "fit" span, incremental path off); core.FitTemporal and
// core.FitSpatial are then timed on the same base and on the 60% prefix
// the spatiotemporal stage fits first. Those four calls are the fit
// span's temporal and spatial children, and what is left of the span is
// its self time: the CART tree, the stacked ensemble and promotion.
// Finally core.IncrementalTemporal and core.IncrementalSpatial fold the
// tail into the base models.
func replayFits(svc *serve.Service, fit serve.FitFunc, cfg serve.Config, p *plan) (map[string]metric, error) {
	full := cfg
	full.IncrementalRefit = false
	tmpMS, spaMS, incTMS, incSMS, selfMS := &Samples{}, &Samples{}, &Samples{}, &Samples{}, &Samples{}
	done := 0
	for _, as := range p.rank {
		if done == replayTargets {
			break
		}
		window, total := svc.Store().Window(as)
		if len(window) < 4*tailLen {
			continue
		}
		done++
		base, tail := window[:len(window)-tailLen], window[len(window)-tailLen:]
		spans := []Span{{Name: "fit", Parent: -1}}
		spans[0].Start = time.Now()
		if _, err := fit(as, base, total-tailLen, 0, full); err != nil {
			return nil, fmt.Errorf("replay fit AS%d: %w", as, err)
		}
		spans[0].End = time.Now()
		// The children are timed after the span, then laid end to end
		// from its start, as they run inside it.
		at := spans[0].Start
		child := func(name string, f func() error) error {
			t := time.Now()
			err := f()
			d := time.Since(t)
			spans = append(spans, Span{Name: name, Start: at, End: at.Add(d), Parent: 0})
			at = at.Add(d)
			return err
		}
		prefix := base[:int(0.6*float64(len(base)))]
		scfg := cfg.Spatial
		scfg.Seed = cfg.Seed ^ (uint64(as) * 0x9e3779b97f4a7c15)
		var tm *core.Temporal
		var sm *core.Spatial
		err := errors.Join(
			child("temporal", func() error { _, err := core.FitTemporal(dominantFamily(prefix), prefix, cfg.Temporal); return err }),
			child("spatial", func() error { _, err := core.FitSpatial(as, prefix, scfg); return err }),
			child("temporal", func() (err error) { tm, err = core.FitTemporal(dominantFamily(base), base, cfg.Temporal); return err }),
			child("spatial", func() (err error) { sm, err = core.FitSpatial(as, base, scfg); return err }),
		)
		if err != nil {
			return nil, fmt.Errorf("replay AS%d: %w", as, err)
		}
		tmpMS.Add(float64(spans[3].Dur()) / 1e6)
		spaMS.Add(float64(spans[4].Dur()) / 1e6)
		selfMS.Add(float64(selfTime(spans, 0)) / 1e6)
		// A fold-in may decline with a drift error; its cost until then
		// is still the incremental path's cost.
		t := time.Now()
		_, _ = core.IncrementalTemporal(tm, tail, cfg.DriftRatio)
		incTMS.Add(float64(time.Since(t)) / 1e6)
		t = time.Now()
		_, _ = core.IncrementalSpatial(sm, tail, 40, cfg.DriftRatio)
		incSMS.Add(float64(time.Since(t)) / 1e6)
	}
	if done == 0 {
		return nil, errors.New("no target window long enough to replay fits")
	}
	return map[string]metric{
		"core.fit_temporal_ms":  {tmpMS.Quantile(0.5), "ms"},
		"core.fit_spatial_ms":   {spaMS.Quantile(0.5), "ms"},
		"core.incr_temporal_ms": {incTMS.Quantile(0.5), "ms"},
		"core.incr_spatial_ms":  {incSMS.Quantile(0.5), "ms"},
		"serve.fit_st_self_ms":  {selfMS.Quantile(0.5), "ms"},
	}, nil
}

// dominantFamily is serve's family choice for a fit window: the most
// frequent label, ties broken lexicographically.
func dominantFamily(window []trace.Attack) string {
	counts := map[string]int{}
	for i := range window {
		counts[window[i].Family]++
	}
	best, bestN := "", -1
	for f, n := range counts {
		if n > bestN || (n == bestN && f < best) {
			best, bestN = f, n
		}
	}
	return best
}

// replayRegistry times Registry.Publish at the run's target count and
// Registry.Forecast on the run's read targets.
func replayRegistry(out *outcome, svc *serve.Service, p *plan) {
	live := svc.Registry()
	var models []*serve.TargetModels
	for _, as := range live.Targets() {
		if tm, ok := live.Lookup(as); ok {
			models = append(models, tm)
		}
	}
	reg := serve.NewRegistry()
	reg.Publish(models)
	batch := models[:min(len(models), 16)] // the scheduler's default batch size
	pub := &Samples{}
	for i := 0; i < 200; i++ {
		t := time.Now()
		reg.Publish(batch)
		pub.Add(float64(time.Since(t)) / 1e3)
	}
	out.set("serve.publish_us", "us", pub.Quantile(0.5))
	out.set("serve.snapshot_targets", "count", float64(live.Size()))

	// Forecast calls are timed in groups of 100 (a single call is close
	// to the clock's resolution); the metric is the median group's mean.
	fcUS := &Samples{}
	bytesOut, calls := 0, 0
	for g := 0; g < 50; g++ {
		t := time.Now()
		for i := 0; i < 100; i++ {
			_, _ = live.Forecast(p.reads[(g*100+i)%len(p.reads)].as)
		}
		fcUS.Add(float64(time.Since(t)) / 1e3 / 100)
	}
	for i := 0; i < min(len(p.reads), 500); i++ {
		fc, err := live.Forecast(p.reads[i].as)
		if err != nil {
			continue
		}
		b, _ := json.Marshal(fc)
		bytesOut += len(b) + 1 // the handler's encoder ends with a newline
		calls++
	}
	out.set("serve.forecast_us", "us", fcUS.Quantile(0.5))
	out.set("serve.forecast_bytes", "B", float64(bytesOut)/float64(max(calls, 1)))
}
