package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

func TestAttribute(t *testing.T) {
	for _, c := range []struct {
		want  string
		stack []string // leaf first
	}{
		{"nn", []string{"math.Tanh", "repro/internal/nn.(*Network).forward", "repro/internal/core.FitSpatial",
			"repro/internal/serve.fitTarget", "repro/internal/serve.(*scheduler).run", "runtime.goexit"}},
		{"arima", []string{"repro/internal/linalg.Solve", "repro/internal/arima.fitARMA",
			"repro/internal/core.FitTemporal", "repro/internal/serve.fitTarget"}},
		{"gc", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker", "runtime.goexit"}},
		{"gc", []string{"runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/serve.(*Service).IngestBatch"}},
		{"http", []string{"syscall.read", "net.(*conn).Read", "net/http.(*conn).serve", "runtime.goexit"}},
		{"trace", []string{"repro/internal/trace.(*BatchDecoder).Decode", "main.(*tracedServer).ServeHTTP",
			"net/http.serverHandler.ServeHTTP", "net/http.(*conn).serve", "runtime.goexit"}},
		{"serve", []string{"encoding/json.(*encodeState).marshal", "repro/internal/serve.writeJSON",
			"net/http.(*conn).serve", "runtime.goexit"}},
		{"wal", []string{"syscall.fsync", "os.(*File).Sync", "repro/internal/wal.(*WAL).syncLoop", "runtime.goexit"}},
		{"other", []string{"runtime.futex", "runtime.findRunnable", "runtime.schedule", "runtime.mcall"}},
		{benchLayer, []string{"syscall.write", "net/http.(*persistConn).writeLoop", "runtime.goexit"}},
		{benchLayer, []string{"repro/internal/trace.AppendRecord", "main.makePlan", "main.main", "runtime.main"}},
		{benchLayer, []string{"time.Sleep", "main.runPhase.func1", "runtime.goexit"}},
	} {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("%v: got %q, want %q", c.stack, got, c.want)
		}
	}
}

// protoBuf builds protobuf messages for the decoder test.
type protoBuf []byte

func (p protoBuf) varint(field int, v uint64) protoBuf {
	p = binary.AppendUvarint(p, uint64(field)<<3)
	return binary.AppendUvarint(p, v)
}

func (p protoBuf) bytes(field int, b []byte) protoBuf {
	p = binary.AppendUvarint(p, uint64(field)<<3|2)
	p = binary.AppendUvarint(p, uint64(len(b)))
	return append(p, b...)
}

func (p protoBuf) packed(field int, vs ...uint64) protoBuf {
	var inner []byte
	for _, v := range vs {
		inner = binary.AppendUvarint(inner, v)
	}
	return p.bytes(field, inner)
}

func TestCPUSharesDecodesProfile(t *testing.T) {
	names := []string{"", "math.Exp", "repro/internal/nn.(*Network).gradients", "repro/internal/serve.fitTarget",
		"runtime.gcBgMarkWorker", "main.runPhase.func1", "net/http.(*conn).serve", "syscall.read"}
	var prof protoBuf
	prof = prof.bytes(1, protoBuf{}.varint(1, 1).varint(2, 2)) // sample_type, ignored
	for i, n := range names {
		prof = prof.bytes(6, []byte(n))
		if i > 0 {
			prof = prof.bytes(5, protoBuf{}.varint(1, uint64(i)).varint(2, uint64(i)))
		}
	}
	line := func(fn uint64) []byte { return protoBuf{}.varint(1, fn) }
	// Location 1 holds math.Exp inlined into gradients (innermost first).
	prof = prof.bytes(4, protoBuf{}.varint(1, 1).bytes(4, line(1)).bytes(4, line(2)))
	for id := uint64(2); id <= 7; id++ {
		prof = prof.bytes(4, protoBuf{}.varint(1, id).bytes(4, line(id+1)))
	}
	sample := func(ns uint64, locs ...uint64) {
		prof = prof.bytes(2, protoBuf{}.packed(1, locs...).packed(2, 1, ns))
	}
	sample(600, 1, 2)  // nn (inlined leaf), under serve
	sample(200, 3)     // gc worker
	sample(150, 7, 5)  // read under the HTTP server
	sample(50, 2)      // serve itself
	sample(1000, 7, 4) // the benchmark's own goroutine: excluded
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof)
	zw.Close()

	shares, total, err := cpuShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-1000e-9) > 1e-15 {
		t.Fatalf("total %g s, want 1e-6 (client samples excluded)", total)
	}
	want := map[string]float64{"nn": 0.6, "gc": 0.2, "http": 0.15, "serve": 0.05}
	sum := 0.0
	for _, l := range cpuLayers {
		if math.Abs(shares[l]-want[l]) > 1e-12 {
			t.Errorf("%s share %g, want %g", l, shares[l], want[l])
		}
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("shares sum to %g", sum)
	}
	if _, _, err := cpuShares([]byte{0x0a, 0x05, 0x01}); err == nil {
		t.Error("a truncated profile must fail to decode")
	}
}

func TestPkgOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/nn.(*Network).gradients":            "repro/internal/nn",
		"repro/internal/serve/metrics.(*Histogram).Observe": "repro/internal/serve/metrics",
		"math.Tanh":              "math",
		"main.main":              "main",
		"net/http.(*conn).serve": "net/http",
	} {
		if got := pkgOf(fn); got != want {
			t.Errorf("pkgOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
