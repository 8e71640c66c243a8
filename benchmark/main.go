// Command benchmark measures ddosd end to end and layer by layer.
//
// Run it from the repository root through run.sh, which builds ddosd and
// this program first:
//
//	bash benchmark/run.sh --workload ingest --seed 1 --seconds 30 --trace 0
//
// With --trace 0 it starts ddosd as a child process, drives it over
// loopback HTTP with open-loop traffic generated from --seed, and prints
// the end-to-end metrics. With --trace 1 it runs the same workload
// against an in-process service and times each layer's public functions
// instead. The last line of standard output is the result object; see
// README.md for the workloads and metric definitions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"repro/internal/obs"
)

// setupRuns is how many times a run boots and warms a daemon; setup_s is
// the median. The last setup continues into the measured phase.
const setupRuns = 3

// drainLimit bounds the wait for the refit backlog to empty after the
// measured phase.
const drainLimit = 20 * time.Second

// The generator's own lateness (see runPhase) is bounded: a median over
// genLateP50 ms means it could not keep to its schedule, and the run is
// invalid. Its p99 only has to stay under genLateP99 ms, because a
// hypervisor stall, or in the traced run a fit holding the one Go
// scheduler the generator shares, delays a few sends by 10 ms or more
// without the generator falling behind.
const (
	genLateP50 = 1.0
	genLateP99 = 50.0
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name: ingest, refit or read")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 30, "measured phase length in seconds")
		traced  = flag.Int("trace", 0, "1 = traced in-process run reporting per-layer metrics")
		bin     = flag.String("daemon", ".bench_build/ddosd", "ddosd binary")
		work    = flag.String("work-dir", ".bench_build/work", "scratch directory for WAL files")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *traced == 1, *bin, *work); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds float64, traced bool, bin, work string) error {
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	if seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if _, err := os.Stat(bin); err != nil && !traced {
		return fmt.Errorf("ddosd binary: %w", err)
	}
	dir := filepath.Join(work, fmt.Sprintf("%s-%d-%d", name, seed, os.Getpid()))
	defer os.RemoveAll(dir)

	var out *outcome
	if traced {
		out, err = runTraced(w, seed, seconds, dir)
	} else {
		out, err = runDaemon(w, seed, seconds, bin, dir)
	}
	if err != nil {
		return err
	}
	diag, _ := json.Marshal(map[string]any{"workload": name, "seed": seed, "traced": traced,
		"stamp": newStamp(out.daemonProcs), "diagnostics": out.diag, "failures": out.failures})
	fmt.Println(string(diag))
	res := result{Correct: len(out.failures) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	if res.Correct {
		for k, m := range out.metrics {
			if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				m.Value = 0
			}
			res.Metrics[k] = m
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("run failed its checks: %v", out.failures)
	}
	return nil
}

// outcome is what either kind of run hands back for printing.
type outcome struct {
	metrics     map[string]metric
	diag        map[string]any
	failures    []string
	attempted   int
	failed      int
	daemonProcs int
}

func (o *outcome) set(name, unit string, v float64) {
	if o.metrics == nil {
		o.metrics = map[string]metric{}
	}
	o.metrics[name] = metric{Value: v, Unit: unit}
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// runDaemon is the untraced run: ddosd as a child process.
func runDaemon(w workload, seed uint64, seconds float64, bin, dir string) (*outcome, error) {
	p, err := makePlan(w, seed, seconds)
	if err != nil {
		return nil, err
	}
	lt := newLagTracker(p.accepted, len(p.warm)+len(p.measured))
	var setups []float64
	var d *daemon
	for k := 0; k < setupRuns; k++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, err
			}
		}
		lt.reset()
		t0 := time.Now()
		d, err = startDaemon(bin, w.daemonArgs(), filepath.Join(dir, strconv.Itoa(k)))
		if err != nil {
			return nil, err
		}
		c := newClient(d.url)
		err = sendWarmup(c, p, lt)
		c.close()
		if err != nil {
			_ = d.stop()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer d.stop()

	ic, rc := newClient(d.url), newClient(d.url)
	defer ic.close()
	defer rc.close()
	m0, err := rc.metrics()
	if err != nil {
		return nil, err
	}
	cpu0, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	ph := runPhase(ic, rc, w, p, lt, time.Now().Add(50*time.Millisecond))
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	out := &outcome{}
	out.check(rc.waitDrained(drainLimit) == nil, "refit backlog did not drain within %v", drainLimit)
	m1, err := rc.metrics()
	if err != nil {
		return nil, err
	}
	acc, err := rc.accuracy()
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	out.daemonProcs = int(m1.Get("ddosd_go_gomaxprocs"))
	checkPhase(out, p, ph, m0, m1)

	wall := ph.end.Sub(ph.start).Seconds()
	setLatency(out, "", ph)
	checkAccuracy(out, acc)
	out.set("setup_s", "s", median(setups))
	out.set("cpu_cores", "cores", (cpu1-cpu0)/wall)
	out.set("rss_peak_mb", "MB", rss)
	// The tail and freshness figures of the untraced run, for reading
	// beside the traced run's; see README.md for why they are not
	// end-to-end metrics.
	out.diag = map[string]any{
		"setup_s":            setups,
		"measured_s":         wall,
		"ack_samples":        ph.ack.Len(),
		"ack_p99_ms":         ph.ack.Quantile(0.99),
		"ack_max_ms":         ph.ack.Max(),
		"forecast_samples":   ph.forecast.Len(),
		"forecast_p99_ms":    ph.forecast.Quantile(0.99),
		"forecast_max_ms":    ph.forecast.Max(),
		"refit_lag_samples":  lagSamples(ph).Len(),
		"refit_lag_p50_s":    lagSamples(ph).Quantile(0.5),
		"refit_lag_p90_s":    lagSamples(ph).Quantile(0.9),
		"gen_late_p50_ms":    ph.genLate.Quantile(0.5),
		"gen_late_p99_ms":    ph.genLate.Quantile(0.99),
		"gen_late_max_ms":    ph.genLate.Max(),
		"backlog_max":        maxInt(ph.backlog),
		"refits":             Delta(m0, m1, "ddosd_refits_total"),
		"refits_incremental": Delta(m0, m1, "ddosd_refit_incremental_total"),
		"duplicates":         ph.dups,
		"accuracy":           acc.Models[servedModel],
	}
	return out, nil
}

// checkPhase applies the checks every run must pass, and counts the
// operations attempted and failed.
func checkPhase(out *outcome, p *plan, ph *phase, m0, m1 Metrics) {
	out.attempted = ph.requests + ph.reads
	out.failed = ph.shed + ph.errs + ph.readErrs
	out.failures = append(out.failures, ph.failures...)
	out.check(ph.shed == 0, "%d ingest requests shed", ph.shed)
	out.check(ph.errs == 0, "%d ingest requests failed", ph.errs)
	out.check(ph.readErrs == 0, "%d reads failed", ph.readErrs)
	sent := 0
	for _, b := range p.measured {
		sent += b.records
	}
	out.check(ph.ingested+ph.dups+ph.unacked == sent, "accepted %d + duplicate %d + shed or failed %d != sent %d",
		ph.ingested, ph.dups, ph.unacked, sent)
	out.check(Delta(m0, m1, "ddosd_ingest_records_total") == float64(ph.ingested),
		"daemon counted %v accepted records, acks said %d", Delta(m0, m1, "ddosd_ingest_records_total"), ph.ingested)
	out.check(Delta(m0, m1, "ddosd_ingest_duplicates_total") == float64(ph.dups),
		"daemon counted %v duplicates, acks said %d", Delta(m0, m1, "ddosd_ingest_duplicates_total"), ph.dups)
	out.check(Delta(m0, m1, "ddosd_refits_dropped_total") == 0, "refit marks dropped on a full queue")
	out.check(!backlogGrew(ph.backlog), "refit backlog grew during the phase: %v", ph.backlog)
	out.check(ph.genLate.Len() > 0 && ph.genLate.Quantile(0.5) <= genLateP50 && ph.genLate.Quantile(0.99) <= genLateP99,
		"generator fell behind: lateness p50 %.2f ms, p99 %.2f ms (limits %g, %g)",
		ph.genLate.Quantile(0.5), ph.genLate.Quantile(0.99), genLateP50, genLateP99)
	for _, c := range []struct {
		name string
		s    *Samples
		qs   []float64
	}{
		{"ack", &ph.ack, []float64{0.5, 0.99}},
		{"forecast", &ph.forecast, []float64{0.5, 0.99}},
		{"refit lag", lagSamples(ph), []float64{0.5, 0.9}},
	} {
		if err := checkQuantiles(c.name, c.s, c.qs...); err != nil {
			out.check(false, "%v", err)
		}
	}
}

// lagSamples are the refit-lag samples of generations fitted during the
// measured phase; when no refit fired in the phase, the generations the
// reads observed were all fitted during setup, and those are used.
func lagSamples(ph *phase) *Samples {
	if ph.lag.Len() > 0 {
		return &ph.lag
	}
	return &ph.setupLag
}

// setLatency sets the median latencies; with a non-empty prefix (the
// traced run) also the tails and the refit lag.
func setLatency(out *outcome, prefix string, ph *phase) {
	out.set(prefix+"ack_p50_ms", "ms", ph.ack.Quantile(0.5))
	out.set(prefix+"forecast_p50_ms", "ms", ph.forecast.Quantile(0.5))
	if prefix == "" {
		return
	}
	out.set(prefix+"ack_p99_ms", "ms", ph.ack.Quantile(0.99))
	out.set(prefix+"forecast_p99_ms", "ms", ph.forecast.Quantile(0.99))
	out.set(prefix+"refit_lag_p50_s", "s", lagSamples(ph).Quantile(0.5))
	out.set(prefix+"refit_lag_p90_s", "s", lagSamples(ph).Quantile(0.9))
}

// servedModel is the /accuracy model kind that answers /forecast unless a
// challenger has been promoted: the spatiotemporal composition.
const servedModel = "st"

// checkAccuracy checks /accuracy has samples for the served model.
func checkAccuracy(out *outcome, acc *obs.AccuracySnapshot) obs.Summary {
	s, ok := acc.Models[servedModel]
	out.check(ok && s.Samples > 0 && s.Magnitude.Samples > 0 && s.Duration.Samples > 0 && s.Timestamp.Samples > 0,
		"/accuracy has no samples for model %q", servedModel)
	return s
}

// setAccuracy sets the served forecasts' accuracy over the daemon's
// accuracy window: quality guards for the paper's three predicted
// measures.
func setAccuracy(out *outcome, acc *obs.AccuracySnapshot) {
	s := checkAccuracy(out, acc)
	out.set("quality.forecast_mag_relerr", "ratio", s.Magnitude.MeanRelErr)
	out.set("quality.forecast_dur_relerr", "ratio", s.Duration.MeanRelErr)
	out.set("quality.forecast_hour_hit", "ratio", s.Timestamp.Rate)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantileSorted(s, 0.5)
}

func maxInt(v []int64) int64 {
	var m int64
	for _, x := range v {
		m = max(m, x)
	}
	return m
}
