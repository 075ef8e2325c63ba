package sde

import (
	"errors"
	"fmt"
	"math/big"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"time"

	"sde/internal/solver"
)

// The parallel SDE extension (paper §VI: "we plan to parallelize SDE's
// implementation ... we have to identify the sets of states which can be
// safely offloaded on other cores and thus can be independently
// executed"). The unit of independence used here is a partition of the
// dscenario space: pinning b symbolic failure decisions to fixed values
// yields 2^b disjoint sub-spaces that never exchange states, so each
// shard runs on a fully independent engine (own expression builder,
// solver, and state population) and the results merge by simple
// aggregation.
//
// Scheduling is adaptive: a bounded worker pool pulls shard work items
// from a shared queue, and when a shard turns out to be a straggler —
// its live-state count or wall time crosses a threshold while other
// workers starve — the worker stops it mid-run and splits it in place,
// pinning one more drop decision to produce two child shards. Light
// regions of the space stay coarse (one cheap run), heavy regions
// subdivide until the pool is balanced, without anyone guessing the
// skew up front. An optional cross-shard solver cache lets concurrent
// shards reuse each other's constraint verdicts.

// MaxShardBits reports how many failure decisions of the scenario can be
// used for sharding: log2 of the maximum shard count.
func (s Scenario) MaxShardBits() int { return len(s.shardable) }

// ShardConfig parameterises RunScenarioShardedWith. The zero value runs
// the whole scenario as a single work item on a GOMAXPROCS-sized pool
// with adaptive splitting disabled.
type ShardConfig struct {
	// ShardBits pre-splits the dscenario space into 2^ShardBits uniform
	// initial shards. It must not exceed the scenario's MaxShardBits.
	ShardBits int

	// Workers bounds the worker pool (0 = GOMAXPROCS; negative values
	// are rejected). Unlike the naive one-goroutine-per-shard scheme,
	// shard count and parallelism are independent: thousands of shards
	// can drain through a small pool.
	Workers int

	// MaxSplitBits caps how many drop decisions a shard may pin in
	// total, i.e. how deep adaptive splitting can subdivide. Values
	// below ShardBits are raised to ShardBits (which disables
	// splitting); values above MaxShardBits are clamped down to it.
	MaxSplitBits int

	// SplitThreshold is the live-state count beyond which a running
	// shard is considered a straggler and eligible for splitting
	// (default 4096).
	SplitThreshold int

	// SplitAfter is the wall-time analogue of SplitThreshold: a shard
	// running longer than this is eligible for splitting (default 2s).
	SplitAfter time.Duration

	// SharedSolverCache backs all shards with one cross-shard solver
	// query cache. Shards share pin-independent query components (the
	// bulk of distributed test-case queries), so later shards skip SAT
	// work the earlier ones already did.
	SharedSolverCache bool

	// CheckpointDir, when non-empty, makes the sharded run durable: each
	// shard checkpoints into its own subdirectory (named by its pinned
	// bit string), and a rerun with the same directory resumes every
	// shard from its last snapshot — finished shards replay nothing. The
	// resumed run may use a different Workers count; the partition, not
	// the pool, defines the shards.
	CheckpointDir string

	// CheckpointEvery is the per-shard checkpoint interval in processed
	// events (0 = the engine default).
	CheckpointEvery int

	// DepthHorizon, when non-zero, adds exploration depth as a second
	// shard dimension: every work item suspends once its cumulative
	// processed-event count reaches the next multiple of the horizon and
	// live work remains, and its surviving frontier fans out into
	// HorizonFanout continuation items that re-enter the queue like any
	// other shard. A scenario with zero shardable bits but deep branching
	// then still spreads across the pool. The (DepthHorizon,
	// HorizonFanout) pair is part of the partition definition: two runs —
	// local or distributed — produce bit-identical reports iff they agree
	// on it, exactly as they must agree on ShardBits.
	DepthHorizon uint64

	// HorizonFanout is how many continuation slices one suspension
	// produces (default 2 when DepthHorizon is set; ignored otherwise).
	// It is clamped to the suspended frontier's independently resumable
	// unit count (COB: live dscenarios; COW/SDS: 1 — those frontiers
	// continue as a chain rather than a fan). Deliberately NOT derived
	// from Workers: the fan-out shapes the leaf partition, and the
	// partition must not depend on pool size.
	HorizonFanout int
}

const (
	defaultSplitThreshold = 4096
	defaultSplitAfter     = 2 * time.Second

	// defaultHorizonFanout is how many continuation slices one suspension
	// produces when DepthHorizon is set and HorizonFanout is not. Small
	// and fixed: each horizon generation doubles the parallelism, so a
	// deep run fans out geometrically without the fan-out ever depending
	// on pool or fleet size (which would break digest stability).
	defaultHorizonFanout = 2
)

// ShardReport is the outcome of one shard of a sharded run.
type ShardReport struct {
	Shard  int
	Pin    map[string]uint64 // the failure decisions this shard fixes
	Report *Report
}

// ShardedReport aggregates a sharded scenario run.
type ShardedReport struct {
	Shards []ShardReport

	// Sched is the scheduler's telemetry: worker utilisation, steal and
	// split counts, and cross-shard solver-cache reuse.
	Sched SchedStats
}

// States returns the total number of final execution states across
// shards. Sharding trades sharing for parallelism, so the total is at
// least the unsharded count.
func (r *ShardedReport) States() int {
	n := 0
	for _, sh := range r.Shards {
		n += sh.Report.States()
	}
	return n
}

// DScenarios returns the total number of represented dscenarios — shards
// partition the space, so this equals the unsharded count.
func (r *ShardedReport) DScenarios() *big.Int {
	total := new(big.Int)
	for _, sh := range r.Shards {
		total.Add(total, sh.Report.DScenarios())
	}
	return total
}

// Violations returns all violations found across shards, in shard order.
// Observed violations are always kept (the same assertion failing in two
// shards belongs to two disjoint sub-spaces); synthesized orbit twins
// from symmetry reduction are deduplicated across leaves — a shard's
// witness expansion covers whole orbits, so without the dedupe every
// leaf touching an orbit would re-report it.
func (r *ShardedReport) Violations() []*Violation {
	type vkey struct {
		node int
		time uint64
		msg  string
	}
	var out []*Violation
	seen := make(map[vkey]bool)
	for _, sh := range r.Shards {
		for _, v := range sh.Report.Violations() {
			if !v.Synthesized {
				out = append(out, v)
				seen[vkey{v.Node, v.Time, v.Msg}] = true
			}
		}
	}
	for _, sh := range r.Shards {
		for _, v := range sh.Report.Violations() {
			if !v.Synthesized {
				continue
			}
			k := vkey{v.Node, v.Time, v.Msg}
			if seen[k] {
				continue
			}
			seen[k] = true
			out = append(out, v)
		}
	}
	return out
}

// Wall returns the longest shard wall time (the critical-path lower
// bound on the makespan; Sched.Elapsed is the realised makespan).
func (r *ShardedReport) Wall() time.Duration {
	var maxWall time.Duration
	for _, sh := range r.Shards {
		if w := sh.Report.Wall(); w > maxWall {
			maxWall = w
		}
	}
	return maxWall
}

// Aborted reports whether any shard hit a resource cap.
func (r *ShardedReport) Aborted() (bool, string) {
	for _, sh := range r.Shards {
		if aborted, reason := sh.Report.Aborted(); aborted {
			return true, fmt.Sprintf("shard %d: %s", sh.Shard, reason)
		}
	}
	return false, ""
}

// workItem identifies one sub-space of the dscenario partition: bit i of
// bits is the pinned value of the i-th shardable drop decision, depth
// says how many bits are pinned, and cont narrows the item along the
// depth dimension to one slice of a suspended ancestor's frontier. The
// set of completed items always forms a prefix-free cover of the
// two-dimensional space, so their union is exactly the unsharded
// exploration regardless of how splitting and suspension unfolded.
type workItem struct {
	depth  int
	bits   uint64
	cont   []ContStep // continuation path (empty for a plain bit shard)
	target uint64     // absolute event count of the next horizon (0 = none)
	parent []byte     // suspended ancestor frontier to slice-resume from
	origin int        // worker that enqueued it; -1 for the initial pre-split
}

type leafResult struct {
	item   workItem
	pin    map[string]uint64
	report *Report
}

// shardSched is the work-stealing pool: a shared LIFO queue drained by a
// fixed set of workers. "Stealing" here is work-sharing through the
// shared queue — a steal is counted whenever a worker executes an item
// that a different worker enqueued (i.e. one half of someone else's
// split).
type shardSched struct {
	scenario Scenario
	armed    []int
	cfg      ShardConfig // normalised: all defaults applied
	cache    *solver.SharedCache

	mu      sync.Mutex
	cond    *sync.Cond
	queue   []workItem
	pending int // queued + in-flight items

	leaves      []leafResult
	errs        []error
	steals      int
	splits      int
	resumed     int
	suspensions int
	busy        []time.Duration
}

// exported converts the scheduler-internal work item to its public form
// (the one the exploration service leases over the wire).
func (it workItem) exported() ShardItem {
	return ShardItem{Depth: it.depth, Bits: it.bits, Cont: it.cont}
}

func (sc *shardSched) pinFor(item workItem) map[string]uint64 {
	return sc.scenario.shardPin(item.exported())
}

func bitLabel(item workItem) string { return item.exported().Label() }

// shardDirName names a work item's checkpoint subdirectory; see
// ShardItem.Dir.
func shardDirName(item workItem) string { return item.exported().Dir() }

// progressHook decides whether a running shard should stop and split: it
// must look like a straggler (states or wall time over threshold) while
// the queue is starving the pool. A full queue means splitting would
// only add overhead; a starved one means idle capacity is waiting for
// exactly this split.
func (sc *shardSched) progressHook(states int, elapsed time.Duration) bool {
	if states <= sc.cfg.SplitThreshold && elapsed < sc.cfg.SplitAfter {
		return false
	}
	sc.mu.Lock()
	starved := len(sc.queue) < sc.cfg.Workers
	sc.mu.Unlock()
	return starved
}

// runItem executes one shard run. Splittable items (depth below the
// cap) get the progress hook installed so the scheduler can cut them
// short — except continuation items: their pinned decisions already
// materialised inside the parent frontier, so pinning more bits cannot
// subdivide them (the depth dimension subdivides them instead). The
// fourth return is the suspended frontier when the run hit its horizon.
func (sc *shardSched) runItem(item workItem) (*Report, map[string]uint64, []byte, error) {
	pin := sc.pinFor(item)
	cfg := sc.scenario.cfg
	cfg.Pin = pin
	cfg.SharedSolverCache = sc.cache
	if item.depth < sc.cfg.MaxSplitBits && len(item.cont) == 0 {
		cfg.Progress = sc.progressHook
	}
	cfg.CheckpointEvery = sc.cfg.CheckpointEvery
	cfg.EventBudget = item.target
	shard := sc.scenario
	shard.cfg = cfg
	shard.desc = fmt.Sprintf("%s [shard %s]", sc.scenario.desc, bitLabel(item))
	dir := ""
	if sc.cfg.CheckpointDir != "" {
		dir = filepath.Join(sc.cfg.CheckpointDir, shardDirName(item))
	}
	report, suspend, err := runShardItem(shard, dir, item.cont, item.parent)
	if err != nil {
		return nil, nil, nil, err
	}
	// Scrub the run-time hooks from the stored scenario: a replay
	// through this report must not be stopped by the (now stale)
	// scheduler hook or event budget, write into the shared cache, or
	// overwrite the shard's checkpoint.
	scrubRunHooks(report)
	return report, pin, suspend, nil
}

func (sc *shardSched) worker(id int) {
	for {
		sc.mu.Lock()
		for len(sc.queue) == 0 && sc.pending > 0 {
			sc.cond.Wait()
		}
		if len(sc.queue) == 0 {
			sc.mu.Unlock()
			return
		}
		item := sc.queue[len(sc.queue)-1]
		sc.queue = sc.queue[:len(sc.queue)-1]
		if item.origin >= 0 && item.origin != id {
			sc.steals++
		}
		sc.mu.Unlock()

		start := time.Now()
		report, pin, suspend, err := sc.runItem(item)
		elapsed := time.Since(start)

		sc.mu.Lock()
		sc.busy[id] += elapsed
		if report != nil && report.Resumed() {
			sc.resumed++
		}
		switch {
		case err != nil:
			sc.errs = append(sc.errs,
				fmt.Errorf("shard %s: %w", bitLabel(item), err))
		case report.res.Stopped:
			// Straggler: replace it with its two halves, one more drop
			// decision pinned. The partial run is discarded — its states
			// are not a sound cover of the sub-space.
			sc.splits++
			for b := uint64(0); b <= 1; b++ {
				child := workItem{
					depth:  item.depth + 1,
					bits:   item.bits | b<<uint(item.depth),
					target: item.target,
					origin: id,
				}
				sc.queue = append(sc.queue, child)
				sc.pending++
				sc.cond.Signal()
			}
		case report.res.Suspended:
			// Depth horizon: fan the surviving frontier out as continuation
			// items. The fan-out is the configured one clamped to what the
			// frontier supports (COW/SDS suspend as a single unit and
			// continue as a chain) — never the worker count, which must not
			// shape the partition.
			sc.suspensions++
			f := sc.cfg.HorizonFanout
			if u := report.res.SuspendUnits; f > u {
				f = u
			}
			if f < 1 {
				f = 1
			}
			target := report.res.Events + sc.cfg.DepthHorizon
			for seg := 0; seg < f; seg++ {
				cont := make([]ContStep, len(item.cont)+1)
				copy(cont, item.cont)
				cont[len(item.cont)] = ContStep{Seg: seg, Of: f}
				child := workItem{
					depth:  item.depth,
					bits:   item.bits,
					cont:   cont,
					target: target,
					parent: suspend,
					origin: id,
				}
				sc.queue = append(sc.queue, child)
				sc.pending++
				sc.cond.Signal()
			}
		default:
			sc.leaves = append(sc.leaves, leafResult{item: item, pin: pin, report: report})
		}
		sc.pending--
		if sc.pending == 0 {
			sc.cond.Broadcast()
		}
		sc.mu.Unlock()
	}
}

// RunScenarioShardedWith runs the scenario partitioned across a worker
// pool according to cfg. The partitions are formed by pinning the
// symbolic drop decisions of *shardable* nodes — armed nodes that are
// radio neighbours of the traffic source, whose first reception (and
// hence their drop decision) materialises in every execution — so every
// shard explores a disjoint fraction of the dscenario space and their
// union is exactly the unsharded exploration. (Pinning a decision that
// might never materialise would replicate the sub-space in which it does
// not, double-counting coverage; built-in scenario constructors compute
// the safe set, and CustomConfig.ShardableNodes declares it for custom
// workloads.)
//
// Shard errors do not cancel the run; every failed shard's error is
// collected and the joined aggregate returned.
func RunScenarioShardedWith(s Scenario, cfg ShardConfig) (*ShardedReport, error) {
	if cfg.ShardBits < 0 {
		return nil, fmt.Errorf("sde: negative shard bits")
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("sde: Workers must be >= 0 (got %d); 0 means one per CPU", cfg.Workers)
	}
	armed := append([]int(nil), s.shardable...)
	sort.Ints(armed)
	if cfg.ShardBits > len(armed) {
		return nil, fmt.Errorf("sde: %d shard bits but only %d shardable drop nodes",
			cfg.ShardBits, len(armed))
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxSplitBits < cfg.ShardBits {
		cfg.MaxSplitBits = cfg.ShardBits
	}
	if cfg.MaxSplitBits > len(armed) {
		cfg.MaxSplitBits = len(armed)
	}
	if cfg.SplitThreshold <= 0 {
		cfg.SplitThreshold = defaultSplitThreshold
	}
	if cfg.SplitAfter <= 0 {
		cfg.SplitAfter = defaultSplitAfter
	}
	if cfg.HorizonFanout < 0 {
		return nil, fmt.Errorf("sde: HorizonFanout must be >= 0 (got %d); 0 means the default", cfg.HorizonFanout)
	}
	if cfg.HorizonFanout > maxContFanout {
		return nil, fmt.Errorf("sde: HorizonFanout %d exceeds the maximum %d", cfg.HorizonFanout, maxContFanout)
	}
	if cfg.DepthHorizon == 0 {
		cfg.HorizonFanout = 0
	} else if cfg.HorizonFanout == 0 {
		cfg.HorizonFanout = defaultHorizonFanout
	}

	sc := &shardSched{
		scenario: s,
		armed:    armed,
		cfg:      cfg,
		busy:     make([]time.Duration, cfg.Workers),
	}
	sc.cond = sync.NewCond(&sc.mu)
	if cfg.SharedSolverCache {
		sc.cache = solver.NewSharedCache()
	}
	for shard := 0; shard < 1<<cfg.ShardBits; shard++ {
		sc.queue = append(sc.queue, workItem{
			depth:  cfg.ShardBits,
			bits:   uint64(shard),
			target: cfg.DepthHorizon,
			origin: -1,
		})
	}
	sc.pending = len(sc.queue)

	start := time.Now()
	var wg sync.WaitGroup
	for id := 0; id < cfg.Workers; id++ {
		id := id
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc.worker(id)
		}()
	}
	wg.Wait()

	if len(sc.errs) > 0 {
		return nil, fmt.Errorf("sde: sharded run: %w", errors.Join(sc.errs...))
	}

	sched := SchedStats{
		Workers:     cfg.Workers,
		Steals:      sc.steals,
		Splits:      sc.splits,
		Resumed:     sc.resumed,
		Suspensions: sc.suspensions,
		WorkerBusy:  sc.busy,
		Elapsed:     time.Since(start),
	}
	if sc.cache != nil {
		st := sc.cache.Stats()
		sched.SharedLookups = st.Lookups
		sched.SharedHits = st.Hits
	}
	return finalizeSharded(s, sc.leaves, sched), nil
}

// finalizeSharded orders completed leaves and aggregates their telemetry
// into the final report. It is shared between the in-process scheduler
// and AssembleSharded, so a distributed run's report is assembled exactly
// like a local one.
func finalizeSharded(s Scenario, leaves []leafResult, sched SchedStats) *ShardedReport {
	// Order the leaves deterministically — lexicographically by pinned
	// bit string, LSB (first shardable decision) first, then by
	// continuation path — so shard indices are stable across scheduling
	// interleavings. Within one (depth, bits) base the continuation
	// paths are prefix-free (a valid cover), so element-wise (seg, of)
	// comparison with shorter-first tie-break is a total order.
	sort.Slice(leaves, func(i, j int) bool {
		a, b := leaves[i].item, leaves[j].item
		n := a.depth
		if b.depth < n {
			n = b.depth
		}
		for bit := 0; bit < n; bit++ {
			ab := (a.bits >> uint(bit)) & 1
			bb := (b.bits >> uint(bit)) & 1
			if ab != bb {
				return ab < bb
			}
		}
		if a.depth != b.depth {
			return a.depth < b.depth
		}
		m := len(a.cont)
		if len(b.cont) < m {
			m = len(b.cont)
		}
		for k := 0; k < m; k++ {
			if a.cont[k].Seg != b.cont[k].Seg {
				return a.cont[k].Seg < b.cont[k].Seg
			}
			if a.cont[k].Of != b.cont[k].Of {
				return a.cont[k].Of < b.cont[k].Of
			}
		}
		return len(a.cont) < len(b.cont)
	})
	shards := make([]ShardReport, len(leaves))
	for i, leaf := range leaves {
		leaf.report.scenario.desc = fmt.Sprintf("%s [shard %d/%d]",
			s.desc, i, len(leaves))
		shards[i] = ShardReport{Shard: i, Pin: leaf.pin, Report: leaf.report}
	}
	sched.Shards = len(shards)
	for _, leaf := range leaves {
		st := leaf.report.res.SolverStats
		sched.IncrementalSolves += st.IncSolves
		sched.SubsumptionHits += st.SubsumptionHits
		sched.EncodeSkips += st.EncodeSkips
		sched.QueriesSliced += st.SlicedQueries
		sched.GatesElided += st.GatesElided
		sp := leaf.report.res.Spec
		sched.SpecSubmitted += sp.Submitted
		sched.SpecSolves += sp.Solves
		sched.SpecElided += sp.Elided
		sched.SpecRewinds += sp.Rewinds
		vmst := leaf.report.res.VM
		sched.FastBlocks += vmst.FastBlocks
		sched.SlowBlocks += vmst.SlowBlocks
		sched.FoldedInstrs += vmst.FoldedInstrs
		mg := leaf.report.res.Merge
		sched.MergeMerges += mg.Merges
		sched.MergeCandidates += mg.Candidates
		sched.MergeRejects += mg.Rejects
		rd := leaf.report.res.Reduce
		sched.ReduceChecks += rd.Checks
		sched.ReducePins += rd.Pins
	}
	return &ShardedReport{Shards: shards, Sched: sched}
}

// RunScenarioSharded runs the scenario split into 2^shardBits static
// partitions on a GOMAXPROCS-sized worker pool: RunScenarioShardedWith
// with adaptive splitting and the shared solver cache disabled.
//
// shardBits must not exceed the scenario's shardable node count, which
// MaxShardBits reports.
func RunScenarioSharded(s Scenario, shardBits int) (*ShardedReport, error) {
	return RunScenarioShardedWith(s, ShardConfig{ShardBits: shardBits})
}
