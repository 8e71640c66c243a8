package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Metrics is one parsed Prometheus text exposition: every sample keyed
// by its series name plus label set exactly as exposed, e.g.
// `ddosd_stage_seconds_sum{stage="score"}`.
type Metrics map[string]float64

// parseMetrics reads the Prometheus text format that /metrics serves.
// Comment lines are skipped; label values may contain escaped quotes,
// backslashes and newlines, which are kept in their escaped form so keys
// match the exposition byte for byte.
func parseMetrics(r io.Reader) (Metrics, error) {
	m := Metrics{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || text[0] == '#' {
			continue
		}
		key, rest, err := splitSeries(text)
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return nil, fmt.Errorf("metrics line %d: no value", line)
		}
		v, err := parseValue(fields[0])
		if err != nil {
			return nil, fmt.Errorf("metrics line %d: %w", line, err)
		}
		m[key] = v
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return m, nil
}

// splitSeries splits a sample line into its series key (name plus the
// brace-delimited label set, if any) and the remainder holding the value.
func splitSeries(text string) (key, rest string, err error) {
	i := strings.IndexAny(text, "{ \t")
	if i < 0 {
		return "", "", fmt.Errorf("no value in %q", text)
	}
	if text[i] != '{' {
		return text[:i], text[i:], nil
	}
	inQuote := false
	for j := i + 1; j < len(text); j++ {
		switch c := text[j]; {
		case inQuote && c == '\\':
			j++ // skip the escaped byte
		case c == '"':
			inQuote = !inQuote
		case !inQuote && c == '}':
			return text[:j+1], text[j+1:], nil
		}
	}
	return "", "", fmt.Errorf("unterminated label set in %q", text)
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// Get returns a sample's value, or 0 when the series is absent (the
// daemon registers every series the benchmark reads at boot).
func (m Metrics) Get(key string) float64 { return m[key] }

// Delta returns after[key] - before[key].
func Delta(before, after Metrics, key string) float64 { return after.Get(key) - before.Get(key) }

// stageKey names one ddosd_stage_seconds child series (suffix "sum" or
// "count").
func stageKey(stage, suffix string) string {
	return "ddosd_stage_seconds_" + suffix + `{stage="` + stage + `"}`
}
