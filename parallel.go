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
// from one ShardQueue, and when a shard turns out to be a straggler —
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
	// produces (default 2 when DepthHorizon is set, at most 4096;
	// ignored without a horizon).
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

type leafResult struct {
	item   ShardItem
	report *Report
}

// shardSched is the in-process pool: a fixed set of goroutines draining
// one ShardQueue. "Stealing" here is work-sharing through the shared
// queue — a steal is counted whenever a worker executes an item that a
// different worker's split or suspension enqueued.
type shardSched struct {
	scenario Scenario // with the shared solver cache, if any
	cfg      ShardConfig

	mu     sync.Mutex
	cond   *sync.Cond
	queue  *ShardQueue
	origin map[*ShardTask]int // worker whose split or suspension enqueued the item

	leaves      []leafResult
	errs        []error
	steals      int
	splits      int
	resumed     int
	suspensions int
	busy        []time.Duration
}

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
	starved := sc.queue.Len() < sc.cfg.Workers
	sc.mu.Unlock()
	return starved
}

// run executes one item through the same path a work lease takes. Only
// splittable items get the progress hook, so only they can be cut short.
func (sc *shardSched) run(t *ShardTask) (*Report, []byte, error) {
	opts := LeaseOptions{
		CheckpointEvery: sc.cfg.CheckpointEvery,
		EventTarget:     t.Target,
		Continuation:    t.Parent(),
	}
	if sc.cfg.CheckpointDir != "" {
		opts.CheckpointDir = filepath.Join(sc.cfg.CheckpointDir, t.Item.Dir())
	}
	if sc.queue.canSplit(t) { // reads only the queue's fixed split cap
		opts.Progress = sc.progressHook
	}
	return runShard(sc.scenario, t.Item, opts)
}

func (sc *shardSched) worker(id int) {
	for {
		sc.mu.Lock()
		for sc.queue.Len() == 0 && !sc.queue.Done() {
			sc.cond.Wait()
		}
		t := sc.queue.Pop()
		if t == nil {
			sc.mu.Unlock()
			return
		}
		if by, ok := sc.origin[t]; ok {
			if by != id {
				sc.steals++
			}
			delete(sc.origin, t)
		}
		sc.mu.Unlock()

		start := time.Now()
		report, suspend, err := sc.run(t)
		elapsed := time.Since(start)

		sc.mu.Lock()
		sc.busy[id] += elapsed
		var kids []*ShardTask
		switch {
		case err != nil:
			sc.errs = append(sc.errs, fmt.Errorf("shard %s: %w", t.Item.Label(), err))
			sc.queue.Complete(t)
		case report.Stopped():
			sc.splits++
			kids = sc.queue.Split(t)
		case report.Suspended():
			sc.suspensions++
			kids = sc.queue.Suspend(t, report.res.SuspendUnits, report.res.Events, suspend)
		default:
			sc.queue.Complete(t)
			sc.leaves = append(sc.leaves, leafResult{item: t.Item, report: report})
		}
		if report != nil && report.Resumed() {
			sc.resumed++
		}
		for _, k := range kids {
			sc.origin[k] = id
		}
		sc.cond.Broadcast()
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
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("sde: Workers must be >= 0 (got %d); 0 means one per CPU", cfg.Workers)
	}
	queue, err := NewShardQueue(s, cfg)
	if err != nil {
		return nil, err
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.SplitThreshold <= 0 {
		cfg.SplitThreshold = defaultSplitThreshold
	}
	if cfg.SplitAfter <= 0 {
		cfg.SplitAfter = defaultSplitAfter
	}

	sc := &shardSched{
		scenario: s,
		cfg:      cfg,
		queue:    queue,
		origin:   make(map[*ShardTask]int),
		busy:     make([]time.Duration, cfg.Workers),
	}
	sc.cond = sync.NewCond(&sc.mu)
	var cache *solver.SharedCache
	if cfg.SharedSolverCache {
		cache = solver.NewSharedCache()
	}
	sc.scenario.cfg.SharedSolverCache = cache

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
	if cache != nil {
		st := cache.Stats()
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
		for bit := 0; bit < min(a.Depth, b.Depth); bit++ {
			ab := (a.Bits >> uint(bit)) & 1
			bb := (b.Bits >> uint(bit)) & 1
			if ab != bb {
				return ab < bb
			}
		}
		if a.Depth != b.Depth {
			return a.Depth < b.Depth
		}
		for k := 0; k < min(len(a.Cont), len(b.Cont)); k++ {
			if a.Cont[k].Seg != b.Cont[k].Seg {
				return a.Cont[k].Seg < b.Cont[k].Seg
			}
			if a.Cont[k].Of != b.Cont[k].Of {
				return a.Cont[k].Of < b.Cont[k].Of
			}
		}
		return len(a.Cont) < len(b.Cont)
	})
	shards := make([]ShardReport, len(leaves))
	for i, leaf := range leaves {
		leaf.report.scenario.desc = fmt.Sprintf("%s [shard %d/%d]",
			s.desc, i, len(leaves))
		shards[i] = ShardReport{Shard: i, Pin: leaf.report.scenario.cfg.Pin, Report: leaf.report}
	}
	sched.Shards = len(shards)
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
