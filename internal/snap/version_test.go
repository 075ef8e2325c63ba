package snap_test

// Cross-version wire-format tests for the v2 → v3 bump (merged
// frontiers). The format promises: a new reader decodes real v2 bytes
// (old writer × new reader); a v2 writer cannot emit a merged frontier at
// all; and a blob claiming v2 while carrying trailing merged-rep bytes is
// rejected as corrupt with an error naming the version that could hold
// them — not a panic, not a silent truncation.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"strings"
	"testing"

	"sde/internal/core"
	"sde/internal/expr"
	"sde/internal/rime"
	"sde/internal/sim"
	"sde/internal/snap"
)

// mergedSnapshot steps a merge-enabled collect run until the live
// frontier holds at least one merged representative, then snapshots it.
func mergedSnapshot(t *testing.T) (*snap.Snapshot, *expr.Builder) {
	t.Helper()
	prog, err := rime.CollectProgram()
	if err != nil {
		t.Fatal(err)
	}
	g := sim.NewGrid(3, 3)
	route := g.StaircaseRoute(8, 0)
	cc := rime.CollectConfig{
		Source: route[0], Sink: route[len(route)-1],
		Route: route, Interval: 10, Packets: 2,
	}
	nodeInit, err := cc.NodeInit(g.K())
	if err != nil {
		t.Fatal(err)
	}
	eng, err := sim.NewEngine(sim.Config{
		Topo:      g,
		Prog:      prog,
		Algorithm: core.SDSAlgorithm,
		Horizon:   120,
		NodeInit:  nodeInit,
		Failures:  sim.FailurePlan{DropFirst: sim.NodeSet(route)},
		Features:  sim.Features{Merge: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	for eng.Step() {
		sp, err := eng.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		if len(sp.Merged) > 0 {
			return sp, eng.Ctx().Exprs
		}
	}
	t.Fatal("run never held a merged representative; workload no longer merges")
	return nil, nil
}

// reversion rewrites the format-version byte of an encoded snapshot and
// repairs the trailing FNV-1a checksum, simulating a blob whose declared
// version disagrees with its actual contents.
func reversion(t *testing.T, data []byte, ver byte) []byte {
	t.Helper()
	const magicLen = 7 // "SDEsnp\x00"
	out := append([]byte(nil), data...)
	out[magicLen] = ver
	h := fnv.New64a()
	h.Write(out[:len(out)-8])
	binary.LittleEndian.PutUint64(out[len(out)-8:], h.Sum64())
	return out
}

// TestCrossVersionOldWriterNewReader: real v2 bytes (written by this
// build's version-parameterized encoder, identical to what a v2 writer
// produced) must decode in the current reader, with no merged frontier
// and all common fields intact — and re-encode at v2 byte-identically,
// so per-version byte stability survives the bump.
func TestCrossVersionOldWriterNewReader(t *testing.T) {
	sp, b := liveSnapshot(t, core.SDSAlgorithm, 60)
	old, err := sp.EncodeAt(b, snap.OldVersion)
	if err != nil {
		t.Fatalf("EncodeAt(%d): %v", snap.OldVersion, err)
	}
	cur, err := sp.Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(old, cur) {
		t.Fatal("v2 and v3 encodings are byte-identical; version gate is dead")
	}

	b2 := expr.NewBuilder()
	sp2, err := snap.Decode(old, b2)
	if err != nil {
		t.Fatalf("new reader rejects v2 bytes: %v", err)
	}
	if len(sp2.Merged) != 0 {
		t.Fatalf("v2 decode produced %d merged reps, want 0", len(sp2.Merged))
	}
	if sp2.Events != sp.Events || sp2.Clock != sp.Clock || len(sp2.States) != len(sp.States) {
		t.Fatalf("v2 decode lost fields: events %d/%d clock %d/%d states %d/%d",
			sp2.Events, sp.Events, sp2.Clock, sp.Clock, len(sp2.States), len(sp.States))
	}
	old2, err := sp2.EncodeAt(b2, snap.OldVersion)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(old, old2) {
		t.Fatal("v2 encode→decode→encode not byte-stable")
	}
}

// TestCrossVersionMergedRequiresV3: the writer half of the gate — a
// merged frontier cannot be serialized at the old version.
func TestCrossVersionMergedRequiresV3(t *testing.T) {
	sp, b := mergedSnapshot(t)
	_, err := sp.EncodeAt(b, snap.OldVersion)
	if err == nil {
		t.Fatal("EncodeAt(v2) accepted a merged frontier")
	}
	if !strings.Contains(err.Error(), "wire version 3") {
		t.Fatalf("error does not name the required version: %v", err)
	}

	// At the current version the same snapshot round-trips byte-stably,
	// representatives included.
	data, err := sp.Encode(b)
	if err != nil {
		t.Fatal(err)
	}
	b2 := expr.NewBuilder()
	sp2, err := snap.Decode(data, b2)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp2.Merged) != len(sp.Merged) {
		t.Fatalf("decoded %d merged reps, want %d", len(sp2.Merged), len(sp.Merged))
	}
	for i := range sp2.Merged {
		if len(sp2.Merged[i].Members) != len(sp.Merged[i].Members) {
			t.Fatalf("rep %d: %d members, want %d",
				i, len(sp2.Merged[i].Members), len(sp.Merged[i].Members))
		}
	}
	data2, err := sp2.Encode(b2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, data2) {
		t.Fatal("merged snapshot encode→decode→encode not byte-stable")
	}
}

// TestCrossVersionDecodeTable: the reader half of the gate, as a table
// over version-byte corruptions of real blobs.
func TestCrossVersionDecodeTable(t *testing.T) {
	plain, pb := liveSnapshot(t, core.SDSAlgorithm, 60)
	plainV3, err := plain.Encode(pb)
	if err != nil {
		t.Fatal(err)
	}
	merged, mb := mergedSnapshot(t)
	mergedV3, err := merged.Encode(mb)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		data    []byte
		wantErr string // "" = must decode
	}{
		// A merged v3 blob relabelled v2: the merged section becomes
		// trailing garbage for a v2 parse — the clear-rejection case the
		// version bump exists for.
		{"merged-v3-claiming-v2", reversion(t, mergedV3, snap.OldVersion),
			"merged-frontier snapshots require wire version 3"},
		// A plain v3 blob relabelled v2 still fails (the v3 sample
		// columns misalign the v2 parse), just with a less specific
		// diagnosis — any ErrCorrupt is acceptable.
		{"plain-v3-claiming-v2", reversion(t, plainV3, snap.OldVersion), "snap: corrupt"},
		// A version from the future is refused up front, naming the
		// range this reader speaks.
		{"future-version", reversion(t, plainV3, snap.Version+1), "this reader speaks"},
		{"current-version", plainV3, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := snap.Decode(tc.data, expr.NewBuilder())
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Decode: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("Decode accepted a corrupt blob")
			}
			if !errors.Is(err, snap.ErrCorrupt) {
				t.Fatalf("error does not wrap ErrCorrupt: %v", err)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}
