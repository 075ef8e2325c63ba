package sim_test

// Modeled-RAM accounting tests. The engine keeps the footprint as two
// running totals — the VM context's live-page count and the overhead sum
// of the touched states — instead of recounting every state's pages at
// each read. The full recount survives only as the oracle here: it must
// equal the running total at every read (after each event, at each
// sample, at Finish) across algorithms, exploration features and run
// shapes, and a run reading the recount must produce the same MemBytes
// series and peak.

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sde/internal/core"
	"sde/internal/isa"
	"sde/internal/sim"
	"sde/internal/snap"
)

// diamondConfig is a small copy of the merge benchmark's diamond
// workload: every node samples one symbolic sensor word and runs two
// two-way branches on its bits, writing a branch-dependent value per
// branch, then runs a few concrete timer ticks. Siblings differ at a
// handful of words, so merging fuses them, and the symbolic branches go
// through the speculation pipeline.
func diamondConfig(t *testing.T, algo core.Algorithm) sim.Config {
	t.Helper()
	const nodes, diamonds, ticks = 3, 2, 3
	const period = nodes + 2
	b := isa.NewBuilder()
	boot := b.Func("boot")
	boot.NodeID(isa.R9)
	boot.AddI(isa.R8, isa.R9, 2)
	boot.Timer("sense", isa.R8, isa.R0)
	boot.Ret()

	sense := b.Func("sense")
	sense.Sym(isa.R1, "sensor", 32)
	sense.MovI(isa.R7, 0)
	for d := 0; d < diamonds; d++ {
		arm, done := fmt.Sprintf("d%darm", d), fmt.Sprintf("d%ddone", d)
		sense.LShrI(isa.R2, isa.R1, uint32(d))
		sense.AndI(isa.R2, isa.R2, 1)
		sense.BrNZ(isa.R2, arm)
		sense.MovI(isa.R3, uint32(100+d))
		sense.Jmp(done)
		sense.Label(arm)
		sense.AddI(isa.R3, isa.R1, uint32(7+d))
		sense.Label(done)
		sense.Store(isa.R7, uint32(0x40+4*d), isa.R3)
	}
	sense.MovI(isa.R8, period)
	sense.Timer("tick", isa.R8, isa.R0)
	sense.Ret()

	tick := b.Func("tick")
	tick.MovI(isa.R7, 0)
	tick.Load(isa.R6, isa.R7, 0x64)
	tick.AddI(isa.R6, isa.R6, 1)
	tick.Store(isa.R7, 0x64, isa.R6)
	tick.UltI(isa.R5, isa.R6, ticks)
	tick.BrZ(isa.R5, "stop")
	tick.MovI(isa.R8, period)
	tick.Timer("tick", isa.R8, isa.R0)
	tick.Label("stop")
	tick.Ret()

	prog, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return sim.Config{
		Topo:      sim.NewLine(nodes),
		Prog:      prog,
		Algorithm: algo,
		Horizon:   uint64(nodes+2) + uint64(ticks+2)*period,
	}
}

// footprintCase is one configuration of the oracle matrix.
type footprintCase struct {
	name string
	cfg  sim.Config
}

func footprintCases(t *testing.T) []footprintCase {
	features := []struct {
		name string
		f    sim.Features
	}{
		{"default", sim.Features{}},
		{"merge", sim.Features{Merge: true}},
		{"nospec", sim.Features{NoSpeculation: true}},
		{"interpret", sim.Features{Interpret: true}},
	}
	var cases []footprintCase
	for _, w := range []struct {
		name  string
		build func(*testing.T, core.Algorithm) sim.Config
	}{{"collect", collectConfig}, {"diamond", diamondConfig}} {
		for _, algo := range allAlgorithms {
			for _, f := range features {
				cfg := w.build(t, algo)
				cfg.Features = f.f
				cases = append(cases, footprintCase{fmt.Sprintf("%s/%v/%s", w.name, algo, f.name), cfg})
			}
		}
	}
	return append(cases, footprintCase{"flood/COB/reduce", withReduction(floodConfig(t, core.COBAlgorithm))})
}

// footprintShapes are the run shapes every case goes through: a fresh
// run, a run killed after its first checkpoint and resumed from it, and
// a run suspended at an event budget and continued from its frontier.
var footprintShapes = []string{"fresh", "resume", "suspend"}

// driveFootprint runs cfg in the given shape, calling install on every
// engine the shape builds before it takes a step.
func driveFootprint(t *testing.T, cfg sim.Config, shape string, install func(*sim.Engine)) *sim.Result {
	t.Helper()
	finish := func(eng *sim.Engine) *sim.Result {
		install(eng)
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	newEngine := func(cfg sim.Config) *sim.Engine {
		eng, err := sim.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	switch shape {
	case "fresh":
		return finish(newEngine(cfg))
	case "resume":
		cfg.CheckpointDir = t.TempDir()
		cfg.CheckpointEvery = 8
		eng := newEngine(cfg)
		install(eng)
		ckpt := filepath.Join(cfg.CheckpointDir, snap.CheckpointFile)
		for {
			if !eng.Step() {
				t.Fatal("run ended before its first checkpoint")
			}
			if _, err := os.Stat(ckpt); err == nil {
				break
			}
		}
		data, err := snap.LoadBytes(cfg.CheckpointDir)
		if err != nil {
			t.Fatal(err)
		}
		resumed, err := sim.ResumeEngine(cfg, data)
		if err != nil {
			t.Fatal(err)
		}
		return finish(resumed)
	case "suspend":
		cfg.EventBudget = 12
		eng := newEngine(cfg)
		first := finish(eng)
		if !first.Suspended {
			t.Fatalf("run did not suspend at event %d", cfg.EventBudget)
		}
		sp, err := eng.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		data, err := sp.Encode(eng.Ctx().Exprs)
		if err != nil {
			t.Fatal(err)
		}
		cfg.EventBudget = 0
		resumed, err := sim.ResumeEngine(cfg, data)
		if err != nil {
			t.Fatal(err)
		}
		return finish(resumed)
	}
	t.Fatalf("unknown shape %q", shape)
	return nil
}

// TestModelBytesMatchesRecount: the running footprint equals the full
// recount at every read, and a run reading the recount instead samples
// the same MemBytes series and reports the same peak and final footprint.
func TestModelBytesMatchesRecount(t *testing.T) {
	for _, c := range footprintCases(t) {
		for _, shape := range footprintShapes {
			t.Run(c.name+"/"+shape, func(t *testing.T) {
				bad := 0
				got := driveFootprint(t, c.cfg, shape, func(e *sim.Engine) {
					sim.CheckFootprint(e, func(running, recount int64) {
						if bad++; bad <= 3 {
							t.Errorf("at clock %d: running footprint %d, recount %d", e.Clock(), running, recount)
						}
					})
				})
				want := driveFootprint(t, c.cfg, shape, sim.ReadRecount)
				if got.PeakMem != want.PeakMem || got.FinalMem != want.FinalMem {
					t.Errorf("peak/final = %d/%d, recount reader %d/%d",
						got.PeakMem, got.FinalMem, want.PeakMem, want.FinalMem)
				}
				gs, ws := got.Series.Samples(), want.Series.Samples()
				if len(gs) != len(ws) {
					t.Fatalf("%d samples, recount reader %d", len(gs), len(ws))
				}
				for i := range gs {
					if gs[i].MemBytes != ws[i].MemBytes {
						t.Fatalf("sample %d: MemBytes %d, recount reader %d", i, gs[i].MemBytes, ws[i].MemBytes)
					}
				}
				if c.cfg.Merge && shape == "fresh" && got.Merge.Merges == 0 {
					t.Error("merge-enabled case performed no merges; it no longer covers merged reps")
				}
			})
		}
	}
}

// TestMemoryCapAbortsAtFirstEvent: MaxMemBytes is enforced after every
// event, not on sampling ticks. With sampling nearly off, a cap just
// under the footprint after event k must stop the run at event k.
func TestMemoryCapAbortsAtFirstEvent(t *testing.T) {
	cfg := collectConfig(t, core.COBAlgorithm)
	cfg.SampleEvery = 1000

	eng, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var after []int64 // footprint after each event
	for eng.Step() {
		after = append(after, sim.MemBytes(eng))
	}
	uncapped := eng.Finish()
	if uncapped.Events >= uint64(cfg.SampleEvery) {
		t.Fatalf("%d events reach the first sample; the test needs a run shorter than SampleEvery", uncapped.Events)
	}
	// k: the first event past the tenth whose footprint exceeds every
	// earlier one, so a cap one byte under it is not crossed earlier.
	k, peak := 0, int64(0)
	for i, m := range after {
		if i >= 10 && m > peak {
			k = i + 1
			break
		}
		peak = max(peak, m)
	}
	if k == 0 {
		t.Fatal("footprint never grows past event 10")
	}

	capped := cfg
	capped.Caps.MaxMemBytes = after[k-1] - 1
	res := runQoptCfg(t, capped)
	if !res.Aborted || !strings.Contains(res.AbortReason, "memory cap exceeded") {
		t.Fatalf("aborted=%v reason=%q, want a memory-cap abort", res.Aborted, res.AbortReason)
	}
	if res.Events != uint64(k) {
		t.Errorf("capped run stopped after %d events, want %d", res.Events, k)
	}

	reader, err := sim.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.ReadRecount(reader)
	want, err := reader.Run()
	if err != nil {
		t.Fatal(err)
	}
	if uncapped.PeakMem != want.PeakMem {
		t.Errorf("uncapped PeakMem = %d, recount reader %d", uncapped.PeakMem, want.PeakMem)
	}
}
