package main

import (
	"bufio"
	"errors"
	"math/big"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"sde"
)

// Units of every metric the benchmark prints. BENCHMARK.json names the
// same metrics with the same units; the smoke test holds the two equal.
var endToEndUnits = map[string]string{
	"verdict_s":       "s",
	"verdict_tail_s":  "s",
	"setup_s":         "s",
	"peak_rss_mb":     "MB",
	"modeled_peak_mb": "MB",
	"states":          "count",
}

var perLayerUnits = map[string]string{
	"isa.ir_s":                 "s",
	"sim.run_s":                "s",
	"metrics.samples":          "count",
	"metrics.sample_self_s":    "s",
	"sim.self_s":               "s",
	"vm.instructions":          "count",
	"vm.instr_per_s":           "1/s",
	"vm.fast_rate":             "ratio",
	"vm.self_s":                "s",
	"core.states":              "count",
	"core.groups":              "count",
	"core.self_s":              "s",
	"solver.queries":           "count",
	"solver.sat_calls":         "count",
	"solver.hit_rate":          "ratio",
	"solver.conflicts":         "count",
	"solver.gates":             "count",
	"qopt.gates_elided":        "count",
	"solver.self_s":            "s",
	"qopt.self_s":              "s",
	"spec.submitted":           "count",
	"spec.solves":              "count",
	"spec.waste_rate":          "ratio",
	"spec.barrier_wait_s":      "s",
	"trace.testcases_s":        "s",
	"merge.merges":             "count",
	"merge.accept_rate":        "ratio",
	"merge.splits":             "count",
	"merge.self_s":             "s",
	"reduce.checks":            "count",
	"reduce.pin_rate":          "ratio",
	"reduce.self_s":            "s",
	"sched.inproc_s":           "s",
	"sched.util":               "ratio",
	"sched.steals":             "count",
	"sched.splits":             "count",
	"sched.suspensions":        "count",
	"service.digest_s":         "s",
	"service.dscenarios_per_s": "1/s",
	"dist.job_s":               "s",
	"dist.first_lease_s":       "s",
	"dist.leases":              "count",
	"dist.requeues":            "count",
	"dist.cont_leases":         "count",
	"dist.self_s":              "s",
	"snap.bytes_written":       "bytes",
	"snap.self_s":              "s",
	"runtime.alloc_mb":         "MB",
	"runtime.gc_self_s":        "s",
	"bench.trace_overhead":     "ratio",
	"fail_frac":                "ratio",
}

// selfMetrics names the per-layer metric that reports a profile
// attribution layer's self time.
var selfMetrics = map[string]string{
	samplerLayer: "metrics.sample_self_s",
	"sim":        "sim.self_s",
	"vm":         "vm.self_s",
	"core":       "core.self_s",
	"solver":     "solver.self_s",
	"qopt":       "qopt.self_s",
	"merge":      "merge.self_s",
	"reduce":     "reduce.self_s",
	"dist":       "dist.self_s",
	"snap":       "snap.self_s",
	gcLayer:      "runtime.gc_self_s",
}

func metricUnit(name string) string {
	if u, ok := endToEndUnits[name]; ok {
		return u
	}
	return perLayerUnits[name]
}

const mb = 1e6

// endToEnd computes the end-to-end metrics from the untraced passes.
func endToEnd(passes []passRecord, setupS []float64, details map[string]any) map[string]float64 {
	walls := wallsOf(passes)
	states := make([]float64, len(passes))
	peakMem := make([]float64, len(passes))
	jobRSS := map[string][]float64{}
	for i, p := range passes {
		states[i], peakMem[i] = p.states, p.peakMem
		for job, rss := range p.jobRSS {
			jobRSS[job] = append(jobRSS[job], rss/mb)
		}
	}
	// The workload's peak is its largest job's, each job's peak being
	// its median over the passes.
	peakRSSMB := 0.0
	for _, rss := range jobRSS {
		peakRSSMB = max(peakRSSMB, median(rss))
	}
	if len(jobRSS) == 0 {
		peakRSSMB = peakRSS() / mb
	}
	tail, pct := tailOf(walls)
	details["pass_s"] = walls
	details["job_peak_rss_mb"] = jobRSS
	details["setup_reps_s"] = setupS
	details["verdict_tail"] = map[string]any{"percentile": pct, "passes": len(walls)}
	return map[string]float64{
		"verdict_s":       median(walls),
		"verdict_tail_s":  tail,
		"setup_s":         median(setupS),
		"peak_rss_mb":     peakRSSMB,
		"modeled_peak_mb": median(peakMem) / mb,
		"states":          median(states),
	}
}

// perLayer computes the per-layer metrics: the median over the traced
// passes of each pass counter, the profile's self time per pass, the
// median set-up IR compile time, and the tracing overhead.
func perLayer(traced, untraced []passRecord, irS []float64, self map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for name := range traced[0].layer {
		vals := make([]float64, len(traced))
		for i, p := range traced {
			vals[i] = p.layer[name]
		}
		out[name] = median(vals)
	}
	for layer, metric := range selfMetrics {
		out[metric] = self[layer]
	}
	out["isa.ir_s"] = median(irS)
	out["bench.trace_overhead"] = median(wallsOf(traced))/median(wallsOf(untraced)) - 1
	for name := range perLayerUnits {
		out[name] += 0 // a layer the workload never reaches reads 0
	}
	return out
}

// Counters addCounts sums that are not metrics themselves.
const (
	peakMemCount    = "core.peak_mem_bytes"
	fastBlocks      = "vm.fast_blocks"
	slowBlocks      = "vm.slow_blocks"
	cacheHits       = "solver.cache_hits"
	specRewinds     = "spec.rewinds"
	mergeCandidates = "merge.candidates"
	reducePins      = "reduce.pins"
)

// addCounts adds one report's own counters to m.
func addCounts(m map[string]float64, r *sde.Report) {
	m["core.states"] += float64(r.States())
	m["core.groups"] += float64(r.Groups())
	m[peakMemCount] += float64(r.PeakMemBytes())
	m["metrics.samples"] += float64(len(r.Samples()))
	m["vm.instructions"] += float64(r.Instructions())
	vs := r.VMStats()
	m[fastBlocks] += float64(vs.FastBlocks)
	m[slowBlocks] += float64(vs.SlowBlocks)
	ss := r.SolverStats()
	m["solver.queries"] += float64(ss.Queries)
	m[cacheHits] += float64(ss.CacheHits + ss.SubsumptionHits + ss.SharedHits + ss.PoolHits)
	m["solver.sat_calls"] += float64(ss.SATCalls)
	m["solver.conflicts"] += float64(ss.Conflicts)
	m["solver.gates"] += float64(ss.Gates)
	m["qopt.gates_elided"] += float64(ss.GatesElided)
	sp := r.SpecStats()
	m["spec.submitted"] += float64(sp.Submitted)
	m["spec.solves"] += float64(sp.Solves)
	m[specRewinds] += float64(sp.Rewinds)
	m["spec.barrier_wait_s"] += float64(sp.BarrierWaitNs) / 1e9
	ms := r.MergeStats()
	m["merge.merges"] += float64(ms.Merges)
	m[mergeCandidates] += float64(ms.Candidates)
	m["merge.splits"] += float64(ms.Splits)
	rs := r.ReduceStats()
	m["reduce.checks"] += float64(rs.Checks)
	m[reducePins] += float64(rs.Pins)
}

// passLayer computes one traced pass's per-layer counters from the jobs'
// counters, span time per layer call, and allocation.
func passLayer(outs []*outcome, spans map[string]float64, alloc uint64) map[string]float64 {
	m := map[string]float64{}
	var utilSum, utilN, digested float64 // digested: dscenarios hashed by in-process Digest calls
	for _, out := range outs {
		if out == nil {
			continue
		}
		for k, v := range out.counts {
			m[k] += v
		}
		if s := out.sched; s != nil {
			m["sched.steals"] += float64(s.Steals)
			m["sched.splits"] += float64(s.Splits)
			m["sched.suspensions"] += float64(s.Suspensions)
			utilSum += s.MeanUtilization()
			utilN++
			f, _ := new(big.Float).SetInt(out.dscenarios).Float64()
			digested += f
		}
		m["snap.bytes_written"] += float64(out.snapBytes)
	}
	m["vm.fast_rate"] = ratio(m[fastBlocks], m[fastBlocks]+m[slowBlocks])
	m["solver.hit_rate"] = ratio(m[cacheHits], m["solver.queries"])
	m["spec.waste_rate"] = ratio(m[specRewinds], m["spec.submitted"])
	m["merge.accept_rate"] = ratio(m["merge.merges"], m[mergeCandidates])
	m["reduce.pin_rate"] = ratio(m[reducePins], m["reduce.checks"])
	m["sched.util"] = ratio(utilSum, utilN)
	for _, k := range []string{peakMemCount, fastBlocks, slowBlocks, cacheHits, specRewinds, mergeCandidates, reducePins} {
		delete(m, k)
	}

	m["sim.run_s"] = spans["sim.run"]
	m["trace.testcases_s"] = spans["trace.testcases"]
	m["sched.inproc_s"] = spans["sched.inproc"]
	m["service.digest_s"] = spans["service.digest"]
	m["dist.job_s"] = spans["dist.job"]
	m["dist.first_lease_s"] = spans["dist.first_lease"]
	// Instructions run inside the exploration calls: single engines,
	// the in-process scheduler, and the fleet's jobs.
	m["vm.instr_per_s"] = ratio(m["vm.instructions"], spans["sim.run"]+spans["sched.inproc"]+spans["dist.job"])
	m["service.dscenarios_per_s"] = ratio(digested, spans["service.digest"])
	m["runtime.alloc_mb"] = float64(alloc) / mb
	return m
}

func wallsOf(passes []passRecord) []float64 {
	w := make([]float64, len(passes))
	for i, p := range passes {
		w[i] = p.wall
	}
	return w
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailOf returns the highest percentile of xs the sample supports, and
// that percentile: the highest one with min(10, n/4) samples beyond it
// (at least one), so that it never rests on the few slowest passes
// alone. One sample is its own tail.
func tailOf(xs []float64) (value, percentile float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], 100
	}
	beyond := max(1, min(10, n/4))
	i := n - 1 - beyond
	return s[i], 100 * float64(i+1) / float64(n)
}

// resetPeakRSS collects garbage and restarts the kernel's peak resident
// set count, so that peakRSS covers what runs next. The count restarts
// from the current resident set, which still holds heap the runtime has
// not returned to the system; little survives a job, since only its
// verdict and counters are kept. It reports whether the kernel supports
// the reset.
func resetPeakRSS() bool {
	runtime.GC()
	f, err := os.OpenFile("/proc/self/clear_refs", os.O_WRONLY, 0)
	if err != nil {
		return false
	}
	_, err = f.Write([]byte("5"))
	return errors.Join(err, f.Close()) == nil
}

// peakRSS returns the process's peak resident set in bytes (VmHWM),
// falling back to the memory the Go runtime obtained from the system
// where /proc is unavailable.
func peakRSS() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				fields := strings.Fields(rest)
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return kb * 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys)
}

// provenance is the context every result carries.
func provenance(seed int64) map[string]any {
	gc := os.Getenv("GOGC")
	if gc == "" {
		gc = "100 (default)"
	}
	limit := os.Getenv("GOMEMLIMIT")
	if limit == "" {
		limit = "none"
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"gogc":       gc,
		"gomemlimit": limit,
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
		"commit":     commit(),
		"seed":       seed,
	}
}

// commit reads the checked-out commit from .git in the working
// directory, or reports it unknown (a source tree without git metadata).
func commit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(".git/" + ref); err == nil {
		return strings.TrimSpace(string(id))
	}
	if packed, err := os.ReadFile(".git/packed-refs"); err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if id, name, ok := strings.Cut(line, " "); ok && name == ref {
				return id
			}
		}
	}
	return "unknown"
}
