package main

import (
	"fmt"
	"math/big"
	"runtime"
	"sort"
	"strings"
	"time"

	"sde"
	"sde/internal/dist"
	"sde/internal/expr"
	"sde/internal/vm"
)

// workload is one named job list. setup builds every scenario of a
// pass and compiles its IR (and, on fleet, connects the fleet); the
// returned jobs are then submitted one after another, pass after pass.
type workload struct {
	name  string
	setup func(b *bench) ([]*job, error)
}

// job is one scenario whose verdict the client waits for before it
// submits the next.
type job struct {
	name string // key into expected.json
	// agree groups jobs that must report the same dscenario count and
	// violation set (the same scenario under another algorithm, or the
	// same partition on the fleet). A group whose members both carry a
	// digest must also agree on it.
	agree string
	run   func(b *bench, span int) (*outcome, error)
}

// outcome is a job's verdict plus the counters of its reports, read as
// soon as the job returns so the reports themselves can be collected.
type outcome struct {
	dscenarios *big.Int
	violations []string // canonical and sorted
	testCases  []expr.Env
	digest     string
	aborted    string
	counts     map[string]float64 // summed over the run's report or each shard's (see addCounts)
	sched      *sde.SchedStats
	snapBytes  int64
	// latency runs from the job's submission to its verdict; the
	// client's bookkeeping after the verdict falls outside it.
	latency time.Duration
}

// Job-list constants. The fleet and in-process sharded runs share one
// partition per spec, and every test-case budget is fixed, so pass
// results can be compared across passes, runs and commits.
const (
	gridSampleEvery  = 32 // sde-bench's Table I sampling (DefaultEvalOptions)
	symbolicCases    = 16 // TestCases budget of the symbolic workload
	digestTestCases  = 8  // per-shard test cases hashed into a digest (sde-serve's default)
	specChainDepth   = 32
	thresholdLineLen = 4
	// fleetJobTimeout fails a fleet job that hangs, so a run still ends
	// within its time limit; the next job gets a fresh fleet.
	fleetJobTimeout = 100 * time.Second
)

// poolSize is the worker count of every scheduler and fleet: two, the
// host this benchmark was written for, but never more than the CPUs the
// process can use.
func poolSize() int {
	if n := runtime.NumCPU(); n < 2 {
		return n
	}
	return 2
}

var workloads = []workload{
	{name: "paper-grid", setup: setupPaperGrid},
	{name: "symbolic", setup: setupSymbolic},
	{name: "fleet", setup: setupFleet},
	{name: "symmetric", setup: setupSymmetric},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// setupPaperGrid builds the scenarios RunGridEvaluation runs for the
// paper's evaluation with sde-bench's sampling: the 49-node grid with
// route drops under all three algorithms, and the 100-node Table I
// scenario (route and neighbour drops) under SDS. It calls RunScenario
// on them itself rather than RunGridEvaluation, whose rows drop the
// Report the traced run reads its counters from.
func setupPaperGrid(b *bench) ([]*job, error) {
	type row struct {
		dim   int
		algo  sde.Algorithm
		drops sde.DropSelection
	}
	rows := []row{{7, sde.COB, sde.DropRoute}, {7, sde.COW, sde.DropRoute}, {7, sde.SDS, sde.DropRoute},
		{10, sde.SDS, sde.DropRouteAndNeighbors}}
	var jobs []*job
	for _, r := range rows {
		opts := sde.DefaultEvalOptions(r.dim)
		s, err := b.build(func() (sde.Scenario, error) {
			s, err := sde.GridCollectScenario(sde.GridCollectOptions{
				Dim:       r.dim,
				Algorithm: r.algo,
				Packets:   opts.Packets,
				DropNodes: r.drops,
				Caps:      opts.Caps[r.algo],
			})
			return s.WithSampling(gridSampleEvery), err
		})
		if err != nil {
			return nil, err
		}
		name := fmt.Sprintf("grid%d-%s-%s", r.dim, r.drops, strings.ToLower(r.algo.String()))
		jobs = append(jobs, scenarioJob(name, fmt.Sprintf("grid%d-%s", r.dim, r.drops), s, 0))
	}
	return jobs, nil
}

// setupSymbolic builds the solver-bound jobs: the entangled assume chain
// and the symbolic-reading threshold line, each under all three
// algorithms and each followed by test-case generation.
func setupSymbolic(b *bench) ([]*job, error) {
	var jobs []*job
	for _, algo := range sde.Algorithms {
		chain, err := b.build(func() (sde.Scenario, error) {
			return sde.SpeculationWorkloadScenario(sde.SpeculationWorkloadOptions{
				Algorithm: algo, Depth: specChainDepth, Activations: 2, Width: 8,
			})
		})
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, scenarioJob("specchain-"+strings.ToLower(algo.String()), "specchain", chain, symbolicCases))
		thr, err := b.build(func() (sde.Scenario, error) {
			return sde.ThresholdScenario(sde.ThresholdOptions{K: thresholdLineLen, Algorithm: algo})
		})
		if err != nil {
			return nil, err
		}
		jobs = append(jobs, scenarioJob("threshold-"+strings.ToLower(algo.String()), "threshold", thr, symbolicCases))
	}
	return jobs, nil
}

// fleetSpec is one job spec the fleet workload runs twice: through the
// in-process scheduler and through the coordinator, at one partition.
type fleetSpec struct {
	name string
	spec sde.ScenarioSpec
	opts dist.JobOptions
}

// fleetSpecs are the fleet workload's specs. ShardBits never exceeds
// the scenario's MaxShardBits: the coordinator would clamp a higher
// value silently while RunScenarioShardedWith rejects it, so the two
// sides would compare different partitions. The deep chain runs with a
// quarter of its default per-tick arithmetic so one pass stays short;
// its event structure, and so its continuation leases, are unchanged.
var fleetSpecs = []fleetSpec{
	{"grid7-cob", sde.ScenarioSpec{Workload: "collect", Topology: "grid:7", Algorithm: "cob", Packets: 3},
		dist.JobOptions{ShardBits: 1, TestCases: digestTestCases}},
	{"grid5-sds-route+neighbors", sde.ScenarioSpec{Workload: "collect", Topology: "grid:5", Algorithm: "sds",
		Packets: 3, Drops: "route+neighbors"},
		dist.JobOptions{ShardBits: 2, TestCases: digestTestCases}},
	{"deepchain6-cob", sde.ScenarioSpec{Workload: "deepchain", Topology: "line:6", Algorithm: "cob", Iters: 64},
		dist.JobOptions{TestCases: digestTestCases, DepthHorizon: 400, HorizonFanout: 4}},
}

func setupFleet(b *bench) ([]*job, error) {
	var jobs []*job
	for _, fs := range fleetSpecs {
		s, err := b.build(fs.spec.Scenario)
		if err != nil {
			return nil, err
		}
		if fs.opts.ShardBits > s.MaxShardBits() {
			return nil, fmt.Errorf("%s: %d shard bits requested, scenario supports %d",
				fs.name, fs.opts.ShardBits, s.MaxShardBits())
		}
		cfg := sde.ShardConfig{
			ShardBits:     fs.opts.ShardBits,
			Workers:       poolSize(),
			DepthHorizon:  fs.opts.DepthHorizon,
			HorizonFanout: fs.opts.HorizonFanout,
		}
		jobs = append(jobs, shardedJob(fs.name+"-inproc", fs.name, s, cfg),
			fleetJob(fs.name+"-fleet", fs.name, fs.spec, fs.opts))
	}
	return jobs, b.startFleet(b.setupSpan)
}

// setupSymmetric builds the two jobs that turn reduction and merging on:
// the two-wave flood under COB with symmetry reduction, and the branching
// diamond under SDS with state merging.
func setupSymmetric(b *bench) ([]*job, error) {
	flood, err := b.build(func() (sde.Scenario, error) {
		s, err := reduceFloodScenario(5)
		return s.WithReduction(), err
	})
	if err != nil {
		return nil, err
	}
	diamond, err := b.build(func() (sde.Scenario, error) {
		s, err := mergeDiamondScenario(6, 4, 30, 500)
		return s.WithMerging(), err
	})
	if err != nil {
		return nil, err
	}
	return []*job{
		scenarioJob("flood5-cob-reduce", "", flood, 0),
		scenarioJob("diamond-sds-merge", "", diamond, 0),
	}, nil
}

// scenarioJob runs one scenario in-process on a single engine, then
// generates up to testCases test cases from its report.
func scenarioJob(name, agree string, s sde.Scenario, testCases int) *job {
	return &job{name: name, agree: agree, run: func(b *bench, span int) (*outcome, error) {
		start := time.Now()
		sp := b.tr.begin("sim.run", span)
		rep, err := sde.RunScenario(s)
		b.tr.end(sp)
		if err != nil {
			return nil, err
		}
		out := &outcome{dscenarios: rep.DScenarios(), violations: canonicalViolations(rep.Violations())}
		if testCases > 0 {
			sp := b.tr.begin("trace.testcases", span)
			tcs, err := rep.TestCases(testCases)
			b.tr.end(sp)
			if err != nil {
				return nil, err
			}
			for _, tc := range tcs {
				out.testCases = append(out.testCases, tc.Inputs)
			}
		}
		out.latency = time.Since(start)
		out.counts = map[string]float64{}
		addCounts(out.counts, rep)
		if aborted, reason := rep.Aborted(); aborted {
			out.aborted = reason
		}
		return out, nil
	}}
}

// shardedJob runs one scenario through the in-process shard scheduler
// and digests the result.
func shardedJob(name, agree string, s sde.Scenario, cfg sde.ShardConfig) *job {
	return &job{name: name, agree: agree, run: func(b *bench, span int) (*outcome, error) {
		start := time.Now()
		sp := b.tr.begin("sched.inproc", span)
		rep, err := sde.RunScenarioShardedWith(s, cfg)
		b.tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = b.tr.begin("service.digest", span)
		digest, err := rep.Digest(digestTestCases)
		b.tr.end(sp)
		if err != nil {
			return nil, err
		}
		out := shardedOutcome(rep)
		out.digest, out.latency = digest, time.Since(start)
		sched := rep.Sched // a copy: a pointer into rep would keep its shards alive
		out.sched = &sched
		return out, nil
	}}
}

// fleetJob submits one spec to the coordinator and waits for the
// assembled report and its digest.
func fleetJob(name, agree string, spec sde.ScenarioSpec, opts dist.JobOptions) *job {
	return &job{name: name, agree: agree, run: func(b *bench, span int) (*outcome, error) {
		b.fleetUsed = true
		before := b.fleet.leaseCounters()
		sp := b.tr.begin("dist.job", span)
		submitted := time.Now()
		id, err := b.fleet.coord.AddJobWith(spec, opts)
		if err != nil {
			b.tr.end(sp)
			return nil, err
		}
		select {
		case <-b.fleet.coord.WaitJob(id):
		case <-time.After(fleetJobTimeout):
			b.tr.end(sp)
			return nil, fmt.Errorf("fleet job %s did not finish within %v", id, fleetJobTimeout)
		}
		rep, digest, _, err := b.fleet.coord.JobReport(id)
		latency := time.Since(submitted)
		b.tr.end(sp)
		if err != nil {
			return nil, err
		}
		out := shardedOutcome(rep)
		out.digest, out.latency = digest, latency
		for k, v := range b.fleet.leaseCounters() {
			out.counts[k] += v - before[k]
		}
		if at, ok := b.fleet.firstLeaseAt(id); ok {
			b.tr.add("dist.first_lease", span, submitted, at)
		}
		if out.snapBytes, err = b.fleet.collectJob(id); err != nil {
			return nil, err
		}
		return out, nil
	}}
}

func shardedOutcome(rep *sde.ShardedReport) *outcome {
	out := &outcome{dscenarios: rep.DScenarios(), violations: canonicalViolations(rep.Violations()),
		counts: map[string]float64{}}
	if aborted, reason := rep.Aborted(); aborted {
		out.aborted = reason
	}
	for _, sh := range rep.Shards {
		addCounts(out.counts, sh.Report)
	}
	return out
}

// canonicalViolations renders a violation set independent of the order
// and multiplicity in which states reported it.
func canonicalViolations(vs []*sde.Violation) []string {
	seen := map[string]bool{}
	out := []string{}
	for _, v := range vs {
		key := fmt.Sprintf("node %d: %s", v.Node, v.Msg)
		if !seen[key] {
			seen[key] = true
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// reduceFloodScenario and mergeDiamondScenario mirror the constructors
// of the same names in cmd/sde-bench (reducebench.go, mergebench.go),
// which a main package cannot export.

// reduceFloodScenario builds a two-wave flood on a dim x dim grid: the
// center broadcasts at t=1, its edge-adjacent ring rebroadcasts at t=2,
// and symbolic first-reception drops are armed on three D4 orbits
// ringing the center, so most drop assignments are orbit duplicates.
func reduceFloodScenario(dim int) (sde.Scenario, error) {
	const (
		txBuf     = 0x100
		addrSeen  = 0x40
		addrDelay = 0x44
	)
	b := sde.NewProgramBuilder()

	boot := b.Func("boot")
	boot.MovI(sde.R3, 0)
	boot.Load(sde.R1, sde.R3, addrDelay)
	boot.BrZ(sde.R1, "silent") // delay 0: this node never broadcasts
	boot.Timer("bcast", sde.R1, sde.R0)
	boot.Label("silent")
	boot.Ret()

	bcast := b.Func("bcast")
	bcast.MovI(sde.R4, txBuf)
	bcast.MovI(sde.R5, 0xF100)
	bcast.Store(sde.R4, 0, sde.R5)
	bcast.MovI(sde.R6, sde.BroadcastAddr)
	bcast.Send(sde.R6, sde.R4, 1)
	bcast.Ret()

	recv := b.Func("on_recv")
	recv.MovI(sde.R3, 0)
	recv.Load(sde.R4, sde.R3, addrSeen)
	recv.AddI(sde.R4, sde.R4, 1)
	recv.Store(sde.R3, addrSeen, sde.R4)
	recv.Ret()

	prog, err := b.Build()
	if err != nil {
		return sde.Scenario{}, err
	}

	c := dim / 2
	inner := []int{(c-1)*dim + c, (c+1)*dim + c, c*dim + (c - 1), c*dim + (c + 1)}
	outer := []int{
		(c-1)*dim + (c - 1), (c-1)*dim + (c + 1),
		(c+1)*dim + (c - 1), (c+1)*dim + (c + 1),
		(c-2)*dim + c, (c+2)*dim + c, c*dim + (c - 2), c*dim + (c + 2),
	}
	armed := append(append([]int{}, inner...), outer...)

	center := c*dim + c
	delays := make([]uint32, dim*dim)
	labels := make([]uint64, dim*dim)
	delays[center], labels[center] = 1, 1
	for _, n := range inner {
		delays[n], labels[n] = 2, 2
	}
	init := func(node int, s *vm.State, eb *expr.Builder) {
		if delays[node] != 0 {
			s.StoreWord(addrDelay, eb.Const(uint64(delays[node]), vm.WordBits))
		}
	}
	return sde.CustomScenario(fmt.Sprintf("%dx%d two-wave flood", dim, dim), sde.CustomConfig{
		Topology:     sde.Grid(dim, dim),
		Program:      prog,
		Algorithm:    sde.COB,
		HorizonTicks: 16,
		Failures:     sde.FailurePlan{DropFirst: sde.NodeSet(armed)},
		NodeInit:     init,
		Symmetry:     &sde.SymmetrySpec{Labels: labels},
	})
}

// mergeDiamondScenario builds a line of nodes that each sample one
// symbolic word at boot and run `diamonds` two-way branches on its bits
// (2^diamonds sibling states per node), then `ticks` rounds of concrete
// mixing arithmetic that a merged representative executes once.
func mergeDiamondScenario(nodes, diamonds, ticks, iters int) (sde.Scenario, error) {
	period := uint32(nodes + 2)

	b := sde.NewProgramBuilder()
	boot := b.Func("boot")
	boot.NodeID(sde.R9)
	boot.AddI(sde.R8, sde.R9, 2) // per-node stagger: node i senses at t=2+i
	boot.Timer("sense", sde.R8, sde.R0)
	boot.Ret()

	sense := b.Func("sense")
	sense.Sym(sde.R1, "sensor", 32)
	sense.MovI(sde.R7, 0)
	for d := 0; d < diamonds; d++ {
		arm := fmt.Sprintf("d%darm", d)
		done := fmt.Sprintf("d%ddone", d)
		sense.LShrI(sde.R2, sde.R1, uint32(d))
		sense.AndI(sde.R2, sde.R2, 1)
		sense.BrNZ(sde.R2, arm)
		sense.MovI(sde.R3, uint32(100+d))
		sense.Jmp(done)
		sense.Label(arm)
		sense.AddI(sde.R3, sde.R1, uint32(7+d))
		sense.Label(done)
		sense.Store(sde.R7, uint32(0x40+4*d), sde.R3)
	}
	sense.MovI(sde.R8, period)
	sense.Timer("tick", sde.R8, sde.R0)
	sense.Ret()

	tick := b.Func("tick")
	tick.NodeID(sde.R2)
	tick.AddI(sde.R2, sde.R2, 0x9e37)
	tick.MovI(sde.R3, uint32(iters))
	tick.Label("loop")
	tick.ShlI(sde.R4, sde.R2, 13)
	tick.Xor(sde.R2, sde.R2, sde.R4)
	tick.LShrI(sde.R4, sde.R2, 17)
	tick.Xor(sde.R2, sde.R2, sde.R4)
	tick.ShlI(sde.R4, sde.R2, 5)
	tick.Xor(sde.R2, sde.R2, sde.R4)
	tick.SubI(sde.R3, sde.R3, 1)
	tick.BrNZ(sde.R3, "loop")
	tick.MovI(sde.R7, 0)
	tick.Store(sde.R7, 0x60, sde.R2)
	tick.Load(sde.R6, sde.R7, 0x64)
	tick.AddI(sde.R6, sde.R6, 1)
	tick.Store(sde.R7, 0x64, sde.R6)
	tick.UltI(sde.R5, sde.R6, uint32(ticks))
	tick.BrZ(sde.R5, "stop")
	tick.MovI(sde.R8, period)
	tick.Timer("tick", sde.R8, sde.R0)
	tick.Label("stop")
	tick.Ret()

	prog, err := b.Build()
	if err != nil {
		return sde.Scenario{}, err
	}
	horizon := uint64(nodes+2) + uint64(ticks+2)*uint64(period)
	return sde.CustomScenario("merge diamond", sde.CustomConfig{
		Topology:     sde.Line(nodes),
		Program:      prog,
		Algorithm:    sde.SDS,
		HorizonTicks: horizon,
	})
}
