// Package metrics collects the time series the paper's evaluation plots:
// the number of execution states and the modeled memory footprint of the
// whole SDE process over (wall and virtual) time — Figure 10's state
// growth and memory growth curves.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
)

// Sample is one measurement point.
type Sample struct {
	Wall          time.Duration // wall-clock time since the run started
	VirtualTime   uint64        // engine virtual clock (ticks)
	States        int           // live execution states
	Groups        int           // dscenarios (COB) or dstates (COW/SDS)
	MemBytes      int64         // modeled RAM (deduplicated pages + overheads)
	Instructions  uint64        // instructions executed so far
	SolverQueries int64         // constraint-solver queries issued so far
	QueriesSliced int64         // queries shrunk by constraint independence slicing
	GatesElided   int64         // encoding work avoided by the query optimizer (DAG nodes)

	// Compiled-IR fast-path counters (see VMStats). Derived state: these
	// columns are not part of the snapshot format, so a resumed run's
	// series counts from zero again — like the IR itself, they are
	// recomputed, never serialized.
	FastBlocks   uint64 // block executions taken by the concrete fast path
	SlowBlocks   uint64 // block entries interpreted instruction by instruction
	FoldedInstrs uint64 // fast-path instructions answered by load-time folding

	// State-merging counters (see MergeStats). MergedStates is a gauge —
	// how many states are hidden inside merged representatives right now,
	// so States − MergedStates is the live frontier the scheduler actually
	// drives; the other two are cumulative. All zero with merging off.
	MergedStates    int    // states currently fused away into reps
	MergeCandidates uint64 // structurally mergeable pairs considered so far
	MergeRejects    uint64 // candidates declined by the cost model so far

	// Symmetry-reduction counters (see ReduceStats), cumulative. All zero
	// with reduction off.
	ReduceChecks uint64 // failure decisions the reducer was consulted on
	ReducePins   uint64 // decisions pinned instead of forked (pruned branches)
}

// Series accumulates samples in order.
type Series struct {
	samples []Sample
}

// Add appends a sample.
func (s *Series) Add(sm Sample) { s.samples = append(s.samples, sm) }

// Restore replaces the series with samples recovered from a checkpoint,
// so a resumed run's series continues where the interrupted one stopped.
func (s *Series) Restore(samples []Sample) {
	s.samples = append([]Sample(nil), samples...)
}

// Samples returns the recorded samples (shared slice; do not modify).
func (s *Series) Samples() []Sample { return s.samples }

// Len returns the number of samples.
func (s *Series) Len() int { return len(s.samples) }

// Last returns the most recent sample; ok is false when empty.
func (s *Series) Last() (Sample, bool) {
	if len(s.samples) == 0 {
		return Sample{}, false
	}
	return s.samples[len(s.samples)-1], true
}

// PeakMem returns the largest MemBytes seen.
func (s *Series) PeakMem() int64 {
	var peak int64
	for _, sm := range s.samples {
		if sm.MemBytes > peak {
			peak = sm.MemBytes
		}
	}
	return peak
}

// PeakStates returns the largest state count seen.
func (s *Series) PeakStates() int {
	peak := 0
	for _, sm := range s.samples {
		if sm.States > peak {
			peak = sm.States
		}
	}
	return peak
}

// Downsample returns at most n samples, evenly spaced, always keeping the
// first and last. It is used to keep figure outputs readable.
func (s *Series) Downsample(n int) []Sample {
	if n <= 0 || len(s.samples) <= n {
		return append([]Sample(nil), s.samples...)
	}
	out := make([]Sample, 0, n)
	step := float64(len(s.samples)-1) / float64(n-1)
	for i := 0; i < n; i++ {
		out = append(out, s.samples[int(float64(i)*step+0.5)])
	}
	out[n-1] = s.samples[len(s.samples)-1]
	return out
}

// CSV renders the series with a header row, one sample per line.
func (s *Series) CSV() string {
	var sb strings.Builder
	sb.WriteString("wall_ms,virtual_time,states,groups,mem_bytes,instructions,solver_queries,queries_sliced,gates_elided,fast_blocks,slow_blocks,folded_instrs,merged_states,merge_candidates,merge_rejects,reduce_checks,reduce_pins\n")
	for _, sm := range s.samples {
		fmt.Fprintf(&sb, "%.3f,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d,%d\n",
			float64(sm.Wall.Microseconds())/1000.0,
			sm.VirtualTime, sm.States, sm.Groups, sm.MemBytes, sm.Instructions,
			sm.SolverQueries, sm.QueriesSliced, sm.GatesElided,
			sm.FastBlocks, sm.SlowBlocks, sm.FoldedInstrs,
			sm.MergedStates, sm.MergeCandidates, sm.MergeRejects,
			sm.ReduceChecks, sm.ReducePins)
	}
	return sb.String()
}

// SpecStats summarises one run's speculative-fork solver pipeline
// activity: how many branch decisions overlapped with execution, how the
// speculation resolved, and how much time resolution barriers spent
// waiting on verdicts. All zero when speculation is disabled.
type SpecStats struct {
	Submitted    int64 // speculations submitted (a branch pair counts once)
	Pairs        int64 // two-sided branch speculations
	Assumes      int64 // single-query assume speculations
	Solves       int64 // feasibility queries the worker actually issued
	Elided       int64 // false-side verdicts answered by complement elision
	InflightPeak int64 // high-water mark of unresolved speculations

	Rewinds   int64 // speculative executions rewound onto the false side
	SpecKills int64 // states killed at resolution (infeasible assume, solver error)
	Removed   int64 // provisional constraints removed (one-sided-true branches)

	Barriers      int64 // resolution barriers that found a non-empty pipeline
	BarrierWaitNs int64 // total nanoseconds barriers spent draining verdicts
}

// String renders a one-line speculation summary.
func (s SpecStats) String() string {
	if s.Submitted == 0 {
		return "speculation: off"
	}
	return fmt.Sprintf("spec: submitted=%d (pairs=%d assumes=%d) solves=%d elided=%d rewinds=%d kills=%d barrier-wait=%s",
		s.Submitted, s.Pairs, s.Assumes, s.Solves, s.Elided,
		s.Rewinds, s.SpecKills, time.Duration(s.BarrierWaitNs).Round(time.Microsecond))
}

// VMStats summarises one run's compiled-IR fast-path activity: how many
// basic-block executions ran on the concrete straight-line fast path
// versus falling back to the per-instruction interpreter, and how many
// fast-path instructions were answered by load-time constant folding.
// All zero when compiled execution is disabled.
type VMStats struct {
	FastBlocks   uint64 // block executions taken by the concrete fast path
	SlowBlocks   uint64 // block entries that fell back to the interpreter
	FoldedInstrs uint64 // fast-path instructions answered by load-time folding
}

// FastRate returns the fraction of block entries executed on the fast
// path (0 when compiled execution was off or the program never ran).
func (v VMStats) FastRate() float64 {
	total := v.FastBlocks + v.SlowBlocks
	if total == 0 {
		return 0
	}
	return float64(v.FastBlocks) / float64(total)
}

// String renders a one-line compiled-execution summary.
func (v VMStats) String() string {
	if v.FastBlocks == 0 && v.SlowBlocks == 0 {
		return "compile: off"
	}
	return fmt.Sprintf("compile: fast-blocks=%d slow-blocks=%d (%.0f%% fast) folded=%d",
		v.FastBlocks, v.SlowBlocks, 100*v.FastRate(), v.FoldedInstrs)
}

// MergeStats summarises one run's state-merging activity (internal/merge):
// how many sibling-state fusions the scan performed, how the cost model
// filtered candidates, and how large the merged frontier got. All zero
// when merging is disabled.
type MergeStats struct {
	Merges     uint64 // accepted fusions (each hides one more live state)
	Candidates uint64 // structurally mergeable pairs considered
	Rejects    uint64 // candidates declined by the cost model
	Splits     uint64 // rep dissolutions back into exact members
	MaxMembers int    // largest member count any rep reached
	PeakMerged int    // peak number of states hidden inside reps

	// ScansSkipped counts end-of-event merge scans elided by the barren-
	// workload backoff: after a run of consecutive scans that produced no
	// fusion, the engine scans only every 2^i-th eligible Step (capped),
	// resetting on the next fusion. Candidate nodes accumulate across the
	// skipped scans, so no merge opportunity is lost — only deferred.
	ScansSkipped uint64
}

// String renders a one-line merging summary.
func (m MergeStats) String() string {
	if m.Candidates == 0 && m.Merges == 0 {
		return "merge: off"
	}
	return fmt.Sprintf("merge: merges=%d candidates=%d rejects=%d splits=%d max-members=%d peak-merged=%d scans-skipped=%d",
		m.Merges, m.Candidates, m.Rejects, m.Splits, m.MaxMembers, m.PeakMerged, m.ScansSkipped)
}

// ReduceStats summarises one run's symmetry/partial-order reduction
// activity (internal/reduce): the effective automorphism group the
// reducer pruned with, how often it was consulted, and how many failure
// decisions it pinned instead of forking (each pin halves that lineage's
// subtree). All zero when reduction is disabled.
type ReduceStats struct {
	GroupOrder int  // order of the effective (filtered) automorphism group
	Truncated  bool // automorphism search overflowed; fell back to trivial
	Decisions  int  // size of the armed failure-decision universe

	Checks      uint64 // failure decisions the reducer was consulted on
	Pins        uint64 // decisions pinned instead of forked
	PORCommutes uint64 // merged executions allowed by the independence check
	Synthesized int    // violations synthesized by witness expansion
}

// String renders a one-line reduction summary.
func (r ReduceStats) String() string {
	if r.Checks == 0 && r.GroupOrder <= 1 {
		return "reduce: off"
	}
	trunc := ""
	if r.Truncated {
		trunc = " (truncated)"
	}
	return fmt.Sprintf("reduce: group=%d%s decisions=%d checks=%d pins=%d por-commutes=%d synthesized=%d",
		r.GroupOrder, trunc, r.Decisions, r.Checks, r.Pins, r.PORCommutes, r.Synthesized)
}

// SchedStats summarises one parallel scheduler run: how the adaptive
// work-stealing shard scheduler spent its worker pool. It is the
// scheduling counterpart of the per-run Sample series — per-worker
// utilisation, steal/split activity, and cross-shard solver-cache reuse.
// The per-layer counters (solver, speculation, VM, merging, reduction)
// stay on each leaf's own report.
type SchedStats struct {
	Workers     int // worker pool size
	Shards      int // leaf shards that ran to completion
	Steals      int // work items executed by a worker other than their creator
	Splits      int // straggling shards subdivided in place
	Resumed     int // work items restored from durable checkpoints
	Suspensions int // runs suspended at a depth horizon and fanned out as continuations

	SharedLookups int64 // cross-shard solver cache lookups
	SharedHits    int64 // lookups answered from the cross-shard cache

	WorkerBusy []time.Duration // per-worker time spent running shards
	Elapsed    time.Duration   // scheduler wall time (the makespan)
}

// SharedHitRate returns the fraction of cross-shard cache lookups that
// were answered from the cache (0 when the cache was off or unused).
func (s SchedStats) SharedHitRate() float64 {
	if s.SharedLookups == 0 {
		return 0
	}
	return float64(s.SharedHits) / float64(s.SharedLookups)
}

// Utilization returns each worker's busy fraction of the scheduler wall
// time, clamped to [0, 1].
func (s SchedStats) Utilization() []float64 {
	out := make([]float64, len(s.WorkerBusy))
	if s.Elapsed <= 0 {
		return out
	}
	for i, busy := range s.WorkerBusy {
		u := float64(busy) / float64(s.Elapsed)
		if u > 1 {
			u = 1
		}
		out[i] = u
	}
	return out
}

// MeanUtilization returns the pool-wide average busy fraction.
func (s SchedStats) MeanUtilization() float64 {
	us := s.Utilization()
	if len(us) == 0 {
		return 0
	}
	total := 0.0
	for _, u := range us {
		total += u
	}
	return total / float64(len(us))
}

// String renders a one-line scheduling summary.
func (s SchedStats) String() string {
	shared := "off"
	if s.SharedLookups > 0 {
		shared = fmt.Sprintf("%.0f%%", 100*s.SharedHitRate())
	}
	return fmt.Sprintf("workers=%d shards=%d steals=%d splits=%d shared-hit=%s util=%.0f%% makespan=%s",
		s.Workers, s.Shards, s.Steals, s.Splits, shared,
		100*s.MeanUtilization(), s.Elapsed.Round(time.Millisecond))
}

// FormatBytes renders a byte count with a binary unit suffix.
func FormatBytes(b int64) string {
	switch {
	case b >= 1<<30:
		return fmt.Sprintf("%.2f GiB", float64(b)/(1<<30))
	case b >= 1<<20:
		return fmt.Sprintf("%.2f MiB", float64(b)/(1<<20))
	case b >= 1<<10:
		return fmt.Sprintf("%.2f KiB", float64(b)/(1<<10))
	default:
		return fmt.Sprintf("%d B", b)
	}
}

// AsciiChart renders a crude log-scale chart of one column over sample
// index — enough to eyeball the Figure 10 curve shapes in a terminal.
func AsciiChart(title string, series map[string][]Sample, value func(Sample) float64, width, height int) string {
	var sb strings.Builder
	sb.WriteString(title)
	sb.WriteByte('\n')
	maxV := 1.0
	for _, ss := range series {
		for _, sm := range ss {
			if v := value(sm); v > maxV {
				maxV = v
			}
		}
	}
	names := make([]string, 0, len(series))
	for name := range series {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ss := series[name]
		fmt.Fprintf(&sb, "%-4s |", name)
		pts := resample(ss, width)
		for _, sm := range pts {
			v := value(sm)
			frac := logFrac(v, maxV)
			sb.WriteByte(" .:-=+*#%@"[int(frac*9.999)])
		}
		last := 0.0
		if len(ss) > 0 {
			last = value(ss[len(ss)-1])
		}
		fmt.Fprintf(&sb, "| final %.4g\n", last)
	}
	_ = height
	return sb.String()
}

func resample(ss []Sample, n int) []Sample {
	if len(ss) == 0 {
		return nil
	}
	out := make([]Sample, n)
	div := n - 1
	if div < 1 {
		div = 1
	}
	for i := 0; i < n; i++ {
		out[i] = ss[i*(len(ss)-1)/div]
	}
	return out
}

func logFrac(v, maxV float64) float64 {
	if v <= 1 {
		return 0
	}
	if maxV <= 1 {
		return 1
	}
	l := math.Log2(v) / math.Log2(maxV)
	if l > 1 {
		l = 1
	}
	return l
}
