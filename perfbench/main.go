// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload as a closed loop: a single client submits the
// workload's fixed job list one job after another, pass after pass, for
// a fixed time, checks every verdict against expected.json, and prints
// the end-to-end metrics (or, with --trace 1, the per-layer metrics of a
// traced run) as the last line of its output. See README.md.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"sde"
)

func main() {
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: paper-grid, symbolic, fleet or symmetric")
	seed := fs.Int64("seed", 1, "seed of the per-pass job order")
	seconds := fs.Float64("seconds", 20, "measured time of the run, in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs untraced and traced passes and prints the per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"),
		"directory for the fleet's work directories and the traced run's spans and CPU profile")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*traceFlag != 0 && *traceFlag != 1) || *seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1, --seconds positive, and no positional arguments")
		return 2
	}
	res, err := run(config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		trace:    *traceFlag == 1,
		outDir:   *out,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := res.print(stdout); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// config is one run of the benchmark.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	// passes > 0 runs exactly that many passes per phase, with a single
	// set-up and no warm-up pass (the smoke test's short run).
	passes int
	// expected overrides expected.json (the checker's self-test).
	expected map[string]expectation
}

// setupReps is how often a run sets its workload up; setup_s is the
// median.
const setupReps = 25

// bench is the state of one run.
type bench struct {
	cfg       config
	expected  map[string]expectation
	tr        *tracer
	fleet     *fleet
	fleetUsed bool // the fleet has served a job
	setupSpan int
	rng       *rand.Rand

	attempted, failed int
	failures          []string
}

// build constructs one scenario and compiles its program's IR, the two
// halves of a job's set-up.
func (b *bench) build(construct func() (sde.Scenario, error)) (sde.Scenario, error) {
	sp := b.tr.begin("scenario.build", b.setupSpan)
	s, err := construct()
	b.tr.end(sp)
	if err != nil {
		return s, err
	}
	sp = b.tr.begin("isa.ir", b.setupSpan)
	s.Program().IR()
	b.tr.end(sp)
	return s, nil
}

func (b *bench) startFleet(parent int) error {
	sp := b.tr.begin("fleet.connect", parent)
	defer b.tr.end(sp)
	b.fleetUsed = false
	f, err := startFleet(filepath.Join(b.cfg.outDir, fmt.Sprintf("fleet-%d", os.Getpid())))
	b.fleet = f
	return err
}

func (b *bench) closeFleet() error {
	if b.fleet == nil {
		return nil
	}
	err := b.fleet.close()
	b.fleet = nil
	return err
}

// passRecord is one measured pass.
type passRecord struct {
	wall    float64            // submission to verdict, summed over the jobs, seconds
	states  float64            // final states summed over the jobs
	peakMem float64            // modeled peak memory summed over the jobs, bytes
	jobRSS  map[string]float64 // peak resident set per job, bytes (empty: not measured)
	layer   map[string]float64 // per-layer counters (traced passes only)
}

// settle prepares the process for the next job, so that a job's time and
// memory depend as little as possible on which job ran before it: it
// replaces a fleet that has served a job (the coordinator keeps every
// finished job's report), then collects garbage and restarts the
// kernel's peak-RSS count. It reports whether that count could be
// restarted.
func (b *bench) settle(pass int) (bool, error) {
	if b.fleet != nil && b.fleetUsed {
		if err := b.closeFleet(); err != nil {
			return false, err
		}
		if err := b.startFleet(pass); err != nil {
			return false, err
		}
	}
	return resetPeakRSS(), nil
}

// pass submits every job once, in an order drawn from the seed, and
// checks the verdicts once the last one is in. The pass time is the sum
// of the jobs' submission-to-verdict latencies: the client's
// housekeeping between a verdict and the next submission (settling the
// process, reading counters) falls outside it.
func (b *bench) pass(jobs []*job) (passRecord, error) {
	traced := b.tr.on
	var mem0, mem1 runtime.MemStats
	if traced {
		runtime.ReadMemStats(&mem0)
	}
	mark := b.tr.mark()
	ps := b.tr.begin("pass", 0)
	outs := make([]*outcome, len(jobs))
	errs := make([]error, len(jobs))
	rec := passRecord{jobRSS: map[string]float64{}}
	for _, i := range b.rng.Perm(len(jobs)) {
		rssReset, err := b.settle(ps)
		if err != nil {
			return passRecord{}, err
		}
		js := b.tr.begin("job", ps)
		start := time.Now()
		outs[i], errs[i] = jobs[i].run(b, js)
		if outs[i] != nil {
			rec.wall += outs[i].latency.Seconds()
		} else {
			rec.wall += time.Since(start).Seconds()
		}
		b.tr.end(js)
		if rssReset {
			rec.jobRSS[jobs[i].name] = peakRSS()
		}
	}
	b.tr.end(ps)
	for i, why := range checkPass(b.expected, jobs, outs, errs) {
		b.attempted++
		if why != "" {
			b.failed++
			b.failures = append(b.failures, jobs[i].name+": "+why)
		}
	}
	for _, out := range outs {
		if out != nil {
			rec.states += out.counts["core.states"]
			rec.peakMem += out.counts[peakMemCount]
		}
	}
	if traced {
		runtime.ReadMemStats(&mem1)
		rec.layer = passLayer(outs, b.tr.sums(mark), mem1.TotalAlloc-mem0.TotalAlloc)
	}
	return rec, nil
}

// phase runs passes until the phase has lasted at least seconds (at
// least one pass), or exactly cfg.passes passes when that is set.
func (b *bench) phase(jobs []*job, seconds float64) ([]passRecord, error) {
	var recs []passRecord
	start := time.Now()
	for {
		rec, err := b.pass(jobs)
		if err != nil {
			return nil, err
		}
		recs = append(recs, rec)
		if b.cfg.passes > 0 {
			if len(recs) >= b.cfg.passes {
				return recs, nil
			}
		} else if time.Since(start).Seconds() >= seconds {
			return recs, nil
		}
	}
}

// result is what one run prints.
type result struct {
	workload          string
	correct           bool
	attempted, failed int
	e2e, layer        map[string]float64
	details           map[string]any
}

// run sets the workload up, runs a warm-up pass and then the measured
// phases, and computes the metrics.
func run(cfg config) (res *result, err error) {
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, err
	}
	b := &bench{cfg: cfg, expected: cfg.expected, tr: newTracer(), rng: rand.New(rand.NewSource(cfg.seed))}
	if b.expected == nil {
		if b.expected, err = loadExpected(); err != nil {
			return nil, err
		}
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	defer func() {
		if cerr := b.closeFleet(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	// Set-up, repeated so its median is steady; the last one's jobs run.
	b.tr.on = cfg.trace
	reps := setupReps
	if cfg.passes > 0 {
		reps = 1
	}
	var jobs []*job
	var setupS, irS []float64
	for i := 0; i < reps; i++ {
		if err := b.closeFleet(); err != nil {
			return nil, err
		}
		mark := b.tr.mark()
		b.setupSpan = b.tr.begin("setup", 0)
		start := time.Now()
		jobs, err = w.setup(b)
		setupS = append(setupS, time.Since(start).Seconds())
		b.tr.end(b.setupSpan)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", cfg.workload, err)
		}
		irS = append(irS, b.tr.sums(mark)["isa.ir"])
	}

	b.tr.on = false
	if cfg.passes == 0 {
		if _, err := b.pass(jobs); err != nil { // warm-up: verdicts count, timings do not
			return nil, err
		}
	}
	phaseS := cfg.seconds
	if cfg.trace {
		phaseS /= 2
	}
	untraced, err := b.phase(jobs, phaseS)
	if err != nil {
		return nil, err
	}

	res = &result{workload: cfg.workload, details: map[string]any{"provenance": provenance(cfg.seed)}}
	res.e2e = endToEnd(untraced, setupS, res.details)
	if cfg.trace {
		if res.layer, err = b.tracedPhase(jobs, phaseS, untraced, irS, res.details); err != nil {
			return nil, err
		}
	}
	res.attempted, res.failed = b.attempted, b.failed
	res.correct = b.failed == 0
	res.details["failures"] = b.failures
	if res.layer != nil {
		res.layer["fail_frac"] = float64(b.failed) / float64(b.attempted)
	}
	return res, nil
}

// tracedPhase runs the traced passes under the CPU profiler, writes the
// spans and the profile out, and returns the per-layer metrics.
func (b *bench) tracedPhase(jobs []*job, seconds float64, untraced []passRecord, irS []float64,
	details map[string]any) (map[string]float64, error) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	b.tr.on = true
	traced, err := b.phase(jobs, seconds)
	b.tr.on = false
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}

	samples, err := parseCPUProfile(prof.Bytes())
	if err != nil {
		return nil, err
	}
	self := attribute(samples)
	for layer := range self {
		self[layer] /= float64(len(traced))
	}
	layer := perLayer(traced, untraced, irS, self)
	details["layer_self_s_per_pass"] = self

	base := filepath.Join(b.cfg.outDir, fmt.Sprintf("%s-seed%d", b.cfg.workload, b.cfg.seed))
	spans, err := json.Marshal(map[string]any{"provenance": provenance(b.cfg.seed), "spans": b.tr.finish()})
	if err != nil {
		return nil, err
	}
	if err := errors.Join(os.WriteFile(base+".spans.json", spans, 0o644),
		os.WriteFile(base+".cpu.pprof", prof.Bytes(), 0o644)); err != nil {
		return nil, err
	}
	details["spans_file"], details["cpu_profile"] = base+".spans.json", base+".cpu.pprof"
	return layer, nil
}

// print writes the details line and then the result line, last.
func (r *result) print(w io.Writer) error {
	metrics := r.e2e
	if r.layer != nil {
		metrics = r.layer
	}
	out := map[string]any{}
	for name, v := range metrics {
		out[name] = map[string]any{"value": v, "unit": metricUnit(name)}
	}
	details, err := json.Marshal(map[string]any{"workload": r.workload, "details": r.details})
	if err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{
		"correct": r.correct, "attempted": r.attempted, "failed": r.failed, "metrics": out,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", details, line)
	return err
}
