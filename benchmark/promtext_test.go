package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

// The daemon's own golden exposition (read only) is the parser's input:
// it holds counters, gauges, float gauges, histograms, labelled series
// and a label value with escaped quote, backslash and newline.
func TestParseMetricsGolden(t *testing.T) {
	f, err := os.Open("../internal/serve/testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := parseMetrics(f)
	if err != nil {
		t.Fatal(err)
	}
	for key, want := range map[string]float64{
		"ddosd_ingest_records_total":                                  1200,
		"ddosd_ingest_duplicates_total":                               34,
		"ddosd_refits_dropped_total":                                  1,
		"ddosd_refit_lag":                                             3,
		"ddosd_ingest_seconds_sum":                                    0.0066,
		`ddosd_ingest_seconds_bucket{le="+Inf"}`:                      4,
		`ddosd_stage_seconds_sum{stage="fit"}`:                        0.25,
		stageKey("ingest", "count"):                                   2,
		`ddosd_accuracy_timestamp_hit_rate{model="st"}`:               0.625,
		`ddosd_model_promotions_total{kind="ensemble"}`:               3,
		`ddosd_detect_alerts_total{kind="bad\\label\"with\nnewline"}`: 1,
		`ddosd_detect_alerts_total{kind="rate"}`:                      1,
	} {
		got, ok := m[key]
		if !ok {
			t.Errorf("missing series %s", key)
			continue
		}
		if got != want {
			t.Errorf("%s = %g, want %g", key, got, want)
		}
	}
	// Every sample line of the file is one series.
	b, _ := os.ReadFile("../internal/serve/testdata/metrics.golden")
	lines := 0
	for _, l := range strings.Split(string(b), "\n") {
		if l != "" && !strings.HasPrefix(l, "#") {
			lines++
		}
	}
	if len(m) != lines {
		t.Errorf("parsed %d series from %d sample lines", len(m), lines)
	}
}

func TestParseMetricsValuesAndErrors(t *testing.T) {
	m, err := parseMetrics(strings.NewReader("a 1e3\nb{x=\"}\"} +Inf\nc NaN 1700000000\n"))
	if err != nil {
		t.Fatal(err)
	}
	if m["a"] != 1000 || !math.IsInf(m[`b{x="}"}`], 1) || !math.IsNaN(m["c"]) {
		t.Fatalf("parsed %v", m)
	}
	if Delta(Metrics{"a": 1}, m, "a") != 999 || m.Get("missing") != 0 {
		t.Fatal("Delta/Get")
	}
	for _, bad := range []string{"novalue\n", "x{a=\"1\" 2\n", "y notanumber\n"} {
		if _, err := parseMetrics(strings.NewReader(bad)); err == nil {
			t.Errorf("%q parsed without error", bad)
		}
	}
}
