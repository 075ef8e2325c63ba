package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"
)

// span is one call the benchmark made into a layer's public function.
// Spans of one job share its id; a job's layer spans are children of
// its job span, and job spans are children of their pass span.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Job    int     `json:"job"`
	Name   string  `json:"name"`
	StartS float64 `json:"start_s"`
	EndS   float64 `json:"end_s"`
	SelfS  float64 `json:"self_s"`
}

// tracer keeps spans in memory. While off it records nothing, so the
// untraced passes run the same code without the bookkeeping.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	job   int // id of the job the next job span starts
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 = root) and returns its id (0 when
// tracing is off). A "job" span starts a new job id; any other span
// inherits its parent's.
func (t *tracer) begin(name string, parent int) int {
	if !t.on {
		return 0
	}
	job := 0
	if name == "job" {
		t.job++
		job = t.job
	} else if parent > 0 {
		job = t.spans[parent-1].Job
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Job: job, Name: name,
		StartS: time.Since(t.t0).Seconds(), EndS: -1,
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if id > 0 {
		t.spans[id-1].EndS = time.Since(t.t0).Seconds()
	}
}

// add records a span whose interval was observed elsewhere, such as the
// wait for a fleet job's first lease.
func (t *tracer) add(name string, parent int, start, end time.Time) {
	if id := t.begin(name, parent); id > 0 {
		t.spans[id-1].StartS = start.Sub(t.t0).Seconds()
		t.spans[id-1].EndS = end.Sub(t.t0).Seconds()
	}
}

// mark returns a position in the span list; sums(mark) covers the spans
// recorded after it.
func (t *tracer) mark() int { return len(t.spans) }

// sums totals span durations by name over the spans recorded since from.
func (t *tracer) sums(from int) map[string]float64 {
	out := map[string]float64{}
	for _, s := range t.spans[from:] {
		out[s.Name] += s.EndS - s.StartS
	}
	return out
}

// finish computes every span's self time: its duration minus the part
// its children cover (children never overlap, the client being
// sequential).
func (t *tracer) finish() []span {
	child := make([]float64, len(t.spans)+1)
	for _, s := range t.spans {
		if s.Parent > 0 {
			child[s.Parent] += s.EndS - s.StartS
		}
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.SelfS = s.EndS - s.StartS - child[s.ID]
	}
	return t.spans
}

// layerPrefixes maps a function-name prefix to the layer a CPU profile
// sample's self time is charged to; the longest matching prefix wins. A
// sample goes to the innermost frame of its stack that matches a
// prefix. Frames that match none — the Go runtime, the standard library
// and the expression DAG (internal/expr), which every layer calls — are
// charged to that nearest caller. Two exceptions: garbage collection is
// charged to gcLayer whatever triggered it, and a layer that owns its
// callees takes every sample beneath it. Only the sampler does: it walks
// every live state's pages through vm's page iterator, and that walk is
// sampling work, not execution.
var layerPrefixes = []struct {
	prefix, layer string
	owns          bool
}{
	{"sde/internal/isa.", "isa", false},
	{"sde/internal/rime.", "isa", false},
	{"sde/internal/sim.", "sim", false},
	{"sde/internal/sim.(*Engine).sample", samplerLayer, true},
	{"sde/internal/metrics.", samplerLayer, false},
	{"sde/internal/sim.(*Engine).merge", "merge", false},
	{"sde/internal/sim.(*Engine).maybeMergeScan", "merge", false},
	{"sde/internal/merge.", "merge", false},
	{"sde/internal/sim.(*Engine).reduceContext", "reduce", false},
	{"sde/internal/sim.(*Engine).decideFailure", "reduce", false},
	{"sde/internal/sim.(*Engine).porCanCommute", "reduce", false},
	{"sde/internal/reduce.", "reduce", false},
	{"sde/internal/vm.", "vm", false},
	{"sde/internal/core.", "core", false},
	{"sde/internal/solver.", "solver", false},
	{"sde/internal/qopt.", "qopt", false},
	{"sde/internal/trace.", "trace", false},
	{"sde/internal/dist.", "dist", false},
	{"sde/internal/snap.", "snap", false},
	{"sde.", "sched", false},
	{"main.", "bench", false},
}

// gcPrefixes name the runtime's garbage-collection work.
var gcPrefixes = []string{
	"runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain",
	"runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot", "runtime.scanobject",
	"runtime.sweepone", "runtime.gcStart", "runtime.GC",
}

const (
	gcLayer      = "runtime.gc"
	samplerLayer = "metrics.sampler"
	otherLayer   = "other"
)

// layerOf returns the layer of a function, whether that layer owns its
// callees, and whether any prefix matched.
func layerOf(fn string) (layer string, owns, ok bool) {
	best := -1
	for _, p := range layerPrefixes {
		if strings.HasPrefix(fn, p.prefix) && len(p.prefix) > best {
			best, layer, owns = len(p.prefix), p.layer, p.owns
		}
	}
	return layer, owns, best >= 0
}

func isGC(fn string) bool {
	for _, p := range gcPrefixes {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// attribute charges each profile sample's CPU time to a layer and
// returns seconds per layer.
func attribute(samples []profSample) map[string]float64 {
	out := map[string]float64{}
	for _, s := range samples {
		out[sampleLayer(s.stack)] += float64(s.nanos) / 1e9
	}
	return out
}

func sampleLayer(stack []string) string {
	innermost := ""
	for _, fn := range stack {
		if isGC(fn) {
			return gcLayer
		}
	}
	for _, fn := range stack {
		layer, owns, ok := layerOf(fn)
		if owns {
			return layer
		}
		if ok && innermost == "" {
			innermost = layer
		}
	}
	if innermost == "" {
		return otherLayer
	}
	return innermost
}

// profSample is one CPU profile sample: its stack as function names,
// innermost first (inlined frames expanded), and its CPU time.
type profSample struct {
	stack []string
	nanos int64
}

// parseCPUProfile decodes a gzipped pprof protobuf as runtime/pprof
// writes it. Only the fields the attribution needs are read: samples,
// locations, functions and the string table.
func parseCPUProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples []rawSample
		strs    []string
		funcs   = map[uint64]uint64{}   // function id -> name string index
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = pbUints(s.locs, v, b)
				case 2:
					for _, u := range pbUints(nil, v, b) {
						s.values = append(s.values, int64(u))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcs[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		ps := profSample{nanos: s.values[len(s.values)-1]}
		for _, loc := range s.locs {
			for _, fn := range locs[loc] {
				if idx := funcs[fn]; idx < uint64(len(strs)) {
					ps.stack = append(ps.stack, strs[idx])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

var errBadProto = errors.New("profile: malformed protobuf")

// pbFields calls fn for every field of one protobuf message: v holds a
// varint or fixed value, b a length-delimited payload.
func pbFields(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errBadProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var payload []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(b)
			if n <= 0 {
				return errBadProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errBadProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errBadProto
			}
			payload, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errBadProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errBadProto
		}
		if err := fn(field, v, payload); err != nil {
			return err
		}
	}
	return nil
}

// pbUints appends a repeated integer field's values, packed (b holds
// varints) or not (v is one value).
func pbUints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		u, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, u)
		b = b[n:]
	}
	return dst
}
