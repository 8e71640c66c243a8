package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// CPU profile attribution. The traced run records a runtime/pprof CPU
// profile; this file decodes the profile's protobuf encoding (only the
// fields attribution needs) and assigns every sample to one layer by
// package, so the cpu.* shares say whose time cpu_cores is.

// cpuLayers are the reported layers, in output order.
var cpuLayers = []string{"arima", "nn", "cart", "regress", "serve", "wal", "detect", "trace", "http", "gc", "other"}

// layerPkgs maps the repository's packages to layers. Packages not listed
// (linalg, stats, core, parallel, ...) are helpers: a sample in them is
// charged to the nearest listed caller.
var layerPkgs = map[string]string{
	"repro/internal/arima":         "arima",
	"repro/internal/nn":            "nn",
	"repro/internal/cart":          "cart",
	"repro/internal/regress":       "regress",
	"repro/internal/serve":         "serve",
	"repro/internal/serve/metrics": "serve",
	"repro/internal/obs":           "serve",
	"repro/internal/wal":           "wal",
	"repro/internal/detect":        "detect",
	"repro/internal/trace":         "trace",
}

// benchLayer marks samples of the benchmark's own client side (record
// generation, HTTP client): they are excluded from the shares, because
// the shares describe the daemon's CPU.
const benchLayer = "bench"

// pkgOf returns the package path of a Go function symbol such as
// "repro/internal/nn.(*Network).gradients" or "math.Tanh".
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// attribute assigns one sample's stack (function names, leaf first) to a
// layer:
//
//   - garbage-collector work, in background workers or as mutator
//     assists, is "gc";
//   - goroutines the benchmark started itself (rooted in package main or
//     in the HTTP client's connection loops) are the client side;
//   - otherwise the nearest frame in a listed package names the layer;
//   - a stack with no listed package under the HTTP server is "http",
//     anything else "other".
func attribute(stack []string) string {
	for _, fn := range stack {
		if strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge" {
			return "gc"
		}
	}
	for _, fn := range stack {
		if strings.HasPrefix(fn, "net/http.(*persistConn)") || strings.HasPrefix(fn, "net/http.(*Transport)") ||
			strings.HasPrefix(fn, "net/http.(*Client)") {
			return benchLayer
		}
	}
	if root := rootFunc(stack); pkgOf(root) == "main" {
		return benchLayer
	}
	http := false
	for _, fn := range stack {
		if l, ok := layerPkgs[pkgOf(fn)]; ok {
			return l
		}
		if strings.HasPrefix(fn, "net/http.") {
			http = true
		}
	}
	if http {
		return "http"
	}
	return "other"
}

// rootFunc is the function a goroutine was started with: the outermost
// frame, skipping the runtime's own entry frames.
func rootFunc(stack []string) string {
	for i := len(stack) - 1; i >= 0; i-- {
		switch stack[i] {
		case "runtime.goexit", "runtime.main":
			continue
		}
		return stack[i]
	}
	return ""
}

// cpuShares decodes a (gzipped) pprof CPU profile and returns each
// layer's share of the non-client samples, plus that sample total in
// seconds.
func cpuShares(data []byte) (map[string]float64, float64, error) {
	p, err := decodeProfile(data)
	if err != nil {
		return nil, 0, err
	}
	byLayer := map[string]int64{}
	var total int64
	for _, s := range p.samples {
		l := attribute(p.stack(s))
		if l == benchLayer {
			continue
		}
		byLayer[l] += s.value
		total += s.value
	}
	out := map[string]float64{}
	for _, l := range cpuLayers {
		out[l] = 0
		if total > 0 {
			out[l] = float64(byLayer[l]) / float64(total)
		}
	}
	return out, float64(total) / 1e9, nil
}

type profSample struct {
	locs  []uint64
	value int64 // CPU nanoseconds (or the last sample value)
}

type profile struct {
	samples []profSample
	locs    map[uint64][]uint64 // location id -> function ids, innermost first
	funcs   map[uint64]int64    // function id -> name string index
	strs    []string
}

// stack returns a sample's function names, leaf first, with inlined
// frames expanded.
func (p *profile) stack(s profSample) []string {
	var out []string
	for _, id := range s.locs {
		for _, fid := range p.locs[id] {
			if si := p.funcs[fid]; si >= 0 && si < int64(len(p.strs)) {
				out = append(out, p.strs[si])
			}
		}
	}
	return out
}

func decodeProfile(data []byte) (*profile, error) {
	if len(data) > 2 && data[0] == 0x1f && data[1] == 0x8b {
		zr, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
		if data, err = io.ReadAll(zr); err != nil {
			return nil, fmt.Errorf("profile: %w", err)
		}
	}
	p := &profile{locs: map[uint64][]uint64{}, funcs: map[uint64]int64{}}
	err := walkFields(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			return p.decodeSample(b)
		case 4: // Location
			return p.decodeLocation(b)
		case 5: // Function
			var id uint64
			var name int64
			err := walkFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.funcs[id] = name
			return err
		case 6: // string_table
			p.strs = append(p.strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

func (p *profile) decodeSample(b []byte) error {
	var s profSample
	var values []int64
	err := walkFields(b, func(f, wire int, v uint64, pb []byte) error {
		switch f {
		case 1:
			if wire == 2 {
				return unpackVarints(pb, func(x uint64) { s.locs = append(s.locs, x) })
			}
			s.locs = append(s.locs, v)
		case 2:
			if wire == 2 {
				return unpackVarints(pb, func(x uint64) { values = append(values, int64(x)) })
			}
			values = append(values, int64(v))
		}
		return nil
	})
	if len(values) > 0 {
		s.value = values[len(values)-1]
	}
	p.samples = append(p.samples, s)
	return err
}

func (p *profile) decodeLocation(b []byte) error {
	var id uint64
	var fns []uint64
	err := walkFields(b, func(f, _ int, v uint64, lb []byte) error {
		switch f {
		case 1:
			id = v
		case 4: // Line
			return walkFields(lb, func(lf, _ int, lv uint64, _ []byte) error {
				if lf == 1 {
					fns = append(fns, lv)
				}
				return nil
			})
		}
		return nil
	})
	p.locs[id] = fns
	return err
}

var errTruncated = errors.New("truncated protobuf")

// walkFields calls fn for every top-level field of a protobuf message:
// varint and fixed-width values arrive in v, length-delimited ones in b.
func walkFields(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			v, data = binary.LittleEndian.Uint64(data), data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b, data = data[n:n+int(l)], data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			v, data = uint64(binary.LittleEndian.Uint32(data)), data[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

func unpackVarints(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
