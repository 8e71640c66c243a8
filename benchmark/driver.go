package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/astopo"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/trace"
)

// client is one HTTP connection to the daemon. A run uses two: one for
// /ingest and one for reads (/forecast and the backlog polls), so a
// target's records are applied in the order they were sent.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole response body. Callers stamp
// the response time when it returns and decode the body afterwards, so
// the benchmark's own JSON decoding is not counted as latency.
func (c *client) do(method, path, contentType string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

func (c *client) ingest(body []byte) (int, []byte, error) {
	return c.do(http.MethodPost, "/ingest", trace.BatchContentType, body)
}

func (c *client) forecast(as astopo.AS) (int, []byte, error) {
	return c.do(http.MethodGet, "/forecast?target="+strconv.FormatUint(uint64(as), 10), "", nil)
}

func parseAck(b []byte) (serve.IngestResult, error) {
	var ack serve.IngestResult
	if err := json.Unmarshal(b, &ack); err != nil {
		return ack, fmt.Errorf("ingest response: %w", err)
	}
	return ack, nil
}

// parseForecast checks one /forecast response: status 200 and a complete
// body for the target asked for.
func parseForecast(as astopo.AS, status int, b []byte) (*serve.Forecast, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("forecast AS%d: status %d: %s", as, status, bytes.TrimSpace(b))
	}
	var fc serve.Forecast
	if err := json.Unmarshal(b, &fc); err != nil {
		return nil, fmt.Errorf("forecast AS%d: %w", as, err)
	}
	if fc.TargetAS != as || fc.ModelGeneration == 0 || fc.FittedAt.IsZero() {
		return nil, fmt.Errorf("forecast AS%d: incomplete body %s", as, bytes.TrimSpace(b))
	}
	return &fc, nil
}

func (c *client) getJSON(path string, v any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// refitLag reads the refit backlog (queued plus in-flight targets).
func (c *client) refitLag() (int64, error) {
	var h struct {
		RefitLag int64 `json:"refit_lag"`
	}
	err := c.getJSON("/healthz", &h)
	return h.RefitLag, err
}

func (c *client) metrics() (Metrics, error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseMetrics(resp.Body)
}

func (c *client) accuracy() (*obs.AccuracySnapshot, error) {
	var a obs.AccuracySnapshot
	return &a, c.getJSON("/accuracy", &a)
}

// waitDrained polls until the refit backlog is empty.
func (c *client) waitDrained(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		lag, err := c.refitLag()
		if err != nil {
			return err
		}
		if lag == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("refit backlog still %d after %v", lag, limit)
		}
		time.Sleep(time.Millisecond)
	}
}

// sendWarmup posts the warm-up batches, waiting after each one until the
// refits it triggered have published. Which windows the setup fits see
// then depends on the seed alone, not on how the refit plane raced the
// warm-up, so setup time and the models the measured phase starts from
// repeat. A batch shed with 429 applied nothing, so it is re-sent after
// a short pause: the stream stays continuous, with no gap and no
// duplicate.
func sendWarmup(c *client, p *plan, lt *lagTracker) error {
	for i, b := range p.warm {
		for {
			lt.markSent(i, time.Now())
			status, body, err := c.ingest(b.body)
			if err != nil {
				return fmt.Errorf("warm-up batch %d: %w", i, err)
			}
			if status == http.StatusTooManyRequests {
				time.Sleep(5 * time.Millisecond)
				continue
			}
			ack, err := parseAck(body)
			if err != nil {
				return fmt.Errorf("warm-up batch %d: %w", i, err)
			}
			if status != http.StatusOK || ack.Ingested+ack.Duplicates != b.records || ack.Duplicates != b.dups {
				return fmt.Errorf("warm-up batch %d: status %d, ack %+v, want %d records with %d duplicates",
					i, status, ack, b.records, b.dups)
			}
			break
		}
		if err := c.waitDrained(time.Minute); err != nil {
			return fmt.Errorf("warm-up batch %d: %w", i, err)
		}
	}
	return nil
}

// phase is the outcome of one measured phase.
type phase struct {
	start, end time.Time

	ack      Samples // ms from each request's scheduled send to its ack, less the generator's lateness
	forecast Samples // ms from each read's scheduled send to its response, less the generator's lateness
	genLate  Samples // ms the generator itself sent late
	lag      Samples // refit lag in seconds, one per distinct generation fitted in the phase
	setupLag Samples // refit lag of generations fitted before the phase
	backlog  []int64 // refit backlog polled during the phase

	requests, reads int
	ingested, dups  int
	shed, errs      int // requests
	unacked         int // records in shed or failed requests
	readErrs        int
	failures        []string
}

func (ph *phase) fail(format string, args ...any) {
	if len(ph.failures) < 8 {
		ph.failures = append(ph.failures, fmt.Sprintf(format, args...))
	}
}

// pollEvery spaces the backlog polls the read connection interleaves
// with its reads.
const pollEvery = 250 * time.Millisecond

// runPhase drives the measured phase from start: two open loops on fixed
// schedules, ingest requests on one connection and reads on the other.
// Each latency is timed from the request's scheduled send time, so a
// stall also charges the requests queued behind it. The generator's own
// lateness — the time it sent after the later of the scheduled time and
// the previous response, mostly timer overshoot of up to a millisecond —
// is not the daemon's doing: it is left out of the latency and reported
// and bounded on its own.
func runPhase(ic, rc *client, w workload, p *plan, lt *lagTracker, start time.Time) *phase {
	ph := &phase{requests: len(p.measured), reads: len(p.reads), start: start}
	var mu sync.Mutex // guards ph between the two loops
	base := len(p.warm)
	ingestEvery := time.Duration(float64(time.Second) * float64(w.batch) / w.rate)

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		prevDone := ph.start
		for i, b := range p.measured {
			due := ph.start.Add(time.Duration(i) * ingestEvery)
			time.Sleep(time.Until(due))
			sent := time.Now()
			lt.markSent(base+i, sent)
			status, body, err := ic.ingest(b.body)
			done := time.Now()
			var ack serve.IngestResult
			if err == nil && status != http.StatusTooManyRequests {
				ack, err = parseAck(body)
			}
			late := sent.Sub(later(due, prevDone))
			mu.Lock()
			ph.genLate.Add(ms(late))
			switch {
			case err != nil:
				ph.errs++
				ph.unacked += b.records
				ph.fail("ingest request %d: %v", i, err)
			case status == http.StatusTooManyRequests:
				ph.shed++
				ph.unacked += b.records
			case status != http.StatusOK:
				ph.errs++
				ph.unacked += b.records
				ph.fail("ingest request %d: status %d: %s", i, status, ack.Error)
			case ack.Ingested+ack.Duplicates != b.records || ack.Duplicates != b.dups:
				ph.errs++
				ph.unacked += b.records
				ph.fail("ingest request %d: ack %+v, want %d records with %d duplicates", i, ack, b.records, b.dups)
			default:
				ph.ingested += ack.Ingested
				ph.dups += ack.Duplicates
				ph.ack.Add(ms(done.Sub(due) - late))
			}
			mu.Unlock()
			prevDone = done
		}
	}()
	// Responses are decoded off the read loop, so the benchmark's own
	// JSON decoding never delays the next scheduled read. The buffer lets
	// the decoder fall a second behind before the loop waits for it.
	type reading struct {
		i         int
		as        astopo.AS
		status    int
		body      []byte
		err       error
		due, done time.Time
		late      time.Duration
	}
	readings := make(chan reading, 1024)
	go func() {
		defer wg.Done()
		for r := range readings {
			var fc *serve.Forecast
			err := r.err
			if err == nil {
				fc, err = parseForecast(r.as, r.status, r.body)
			}
			var lag time.Duration
			var fresh bool
			if err == nil {
				lag, fresh, err = lt.observe(r.as, fc.ModelGeneration, fc.Observations, fc.FittedAt)
			}
			mu.Lock()
			switch {
			case err != nil:
				ph.readErrs++
				ph.fail("read %d: %v", r.i, err)
			default:
				ph.forecast.Add(ms(r.done.Sub(r.due) - r.late))
				if fresh && fc.FittedAt.Before(ph.start) {
					ph.setupLag.Add(lag.Seconds())
				} else if fresh {
					ph.lag.Add(lag.Seconds())
				}
			}
			mu.Unlock()
		}
	}()
	go func() {
		defer wg.Done()
		defer close(readings)
		prevDone := ph.start
		lastPoll := time.Time{}
		for i, r := range p.reads {
			as, due := r.as, ph.start.Add(r.at)
			time.Sleep(time.Until(due))
			sent := time.Now()
			status, body, err := rc.forecast(as)
			done := time.Now()
			late := sent.Sub(later(due, prevDone))
			readings <- reading{i: i, as: as, status: status, body: body, err: err, due: due, done: done, late: late}
			mu.Lock()
			ph.genLate.Add(ms(late))
			mu.Unlock()
			prevDone = done
			if done.Sub(lastPoll) >= pollEvery {
				lastPoll = done
				n, err := rc.refitLag()
				mu.Lock()
				if err != nil {
					ph.readErrs++
					ph.fail("backlog poll: %v", err)
				} else {
					ph.backlog = append(ph.backlog, n)
				}
				mu.Unlock()
				prevDone = time.Now()
			}
		}
	}()
	wg.Wait()
	ph.end = time.Now()
	return ph
}

func later(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// backlogGrew reports whether the refit backlog trended upward over the
// phase: the median of the last third of the polls exceeds twice the
// median of the first third by more than two targets. Medians let a
// burst that drains again pass; a backlog that keeps growing does not.
func backlogGrew(polls []int64) bool {
	n := len(polls) / 3
	if n == 0 {
		return false
	}
	med := func(v []int64) float64 {
		var s Samples
		for _, x := range v {
			s.Add(float64(x))
		}
		return s.Quantile(0.5)
	}
	return med(polls[len(polls)-n:]) > 2*med(polls[:n])+2
}
