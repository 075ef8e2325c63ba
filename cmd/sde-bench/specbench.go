package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"sde"
)

// specBenchResult is one row of BENCH_spec.json: the speculation workload
// run end to end under one pipeline configuration.
type specBenchResult struct {
	Name      string `json:"name"`
	Speculate bool   `json:"speculate"`
	NsPerOp   int64  `json:"ns_per_op"` // one full scenario run

	SATCalls  int64 `json:"sat_calls"`
	Conflicts int64 `json:"conflicts"`
	Decisions int64 `json:"decisions"`

	SpecSubmitted int64 `json:"spec_submitted"`
	SpecSolves    int64 `json:"spec_solves"`
	SpecElided    int64 `json:"spec_elided"`
	SpecRewinds   int64 `json:"spec_rewinds"`
	BarrierWaitNs int64 `json:"barrier_wait_ns"`
}

// specBenchReport is the BENCH_spec.json document: the speculative-fork
// pipeline versus synchronous per-branch solving on the entangled
// assume-chain workload.
type specBenchReport struct {
	Benchmark   string    `json:"benchmark"`
	Generated   time.Time `json:"generated"`
	HostCPUs    int       `json:"host_cpus"`
	Depth       int       `json:"depth"`
	Activations int       `json:"activations"`
	Width       int       `json:"width"`
	Reps        int       `json:"reps"`

	Modes []specBenchResult `json:"modes"`

	// Speedup is synchronous wall time over pipelined wall time.
	Speedup float64 `json:"speedup"`
}

// runSpecBench measures the speculative-fork solver pipeline against
// synchronous solving on SpeculationWorkloadScenario and writes the
// results as JSON — the artifact CI uploads next to the solver and qopt
// benches.
func runSpecBench(out string, reps int) error {
	if reps < 1 {
		return fmt.Errorf("-reps must be at least 1 (got %d)", reps)
	}
	opts := sde.SpeculationWorkloadOptions{
		Algorithm:   sde.SDS,
		Depth:       32,
		Activations: 2,
		Width:       8,
	}
	rep := specBenchReport{
		Benchmark:   "SpeculativePipeline",
		Generated:   time.Now().UTC(),
		HostCPUs:    runtime.NumCPU(),
		Depth:       opts.Depth,
		Activations: opts.Activations,
		Width:       opts.Width,
		Reps:        reps,
	}

	measure := func(speculate bool) (specBenchResult, error) {
		name := "sync"
		if speculate {
			name = "spec"
		}
		var best time.Duration
		var res specBenchResult
		for r := 0; r < reps; r++ {
			scenario, err := sde.SpeculationWorkloadScenario(opts)
			if err != nil {
				return specBenchResult{}, err
			}
			if !speculate {
				scenario = scenario.WithoutSpeculation()
			}
			start := time.Now()
			report, err := sde.RunScenario(scenario)
			if err != nil {
				return specBenchResult{}, fmt.Errorf("%s: %w", name, err)
			}
			elapsed := time.Since(start)
			if r == 0 || elapsed < best {
				best = elapsed
				st := report.SolverStats()
				sp := report.SpecStats()
				res = specBenchResult{
					Name:          name,
					Speculate:     speculate,
					NsPerOp:       best.Nanoseconds(),
					SATCalls:      st.SATCalls,
					Conflicts:     st.Conflicts,
					Decisions:     st.Decisions,
					SpecSubmitted: sp.Submitted,
					SpecSolves:    sp.Solves,
					SpecElided:    sp.Elided,
					SpecRewinds:   sp.Rewinds,
					BarrierWaitNs: sp.BarrierWaitNs,
				}
			}
		}
		return res, nil
	}

	for _, speculate := range []bool{false, true} {
		res, err := measure(speculate)
		if err != nil {
			return err
		}
		rep.Modes = append(rep.Modes, res)
	}
	rep.Speedup = float64(rep.Modes[0].NsPerOp) / float64(rep.Modes[1].NsPerOp)

	doc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	doc = append(doc, '\n')
	if err := os.WriteFile(out, doc, 0o644); err != nil {
		return err
	}
	fmt.Printf("Speculative-pipeline bench (depth %d, %d activations, best of %d):\n",
		rep.Depth, rep.Activations, reps)
	for _, m := range rep.Modes {
		fmt.Printf("  %-8s %12s  sat=%-4d spec: submitted=%-4d solves=%-3d elided=%d\n",
			m.Name, time.Duration(m.NsPerOp), m.SATCalls,
			m.SpecSubmitted, m.SpecSolves, m.SpecElided)
	}
	fmt.Printf("  speedup: %.2fx  → %s\n", rep.Speedup, out)
	return nil
}
