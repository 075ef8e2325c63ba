// Command sde-serve is the exploration service's coordinator: a
// long-running process that owns the shard queues of submitted jobs,
// leases work to a fleet of sde-worker processes over TCP, recovers
// leases lost to worker crashes, and assembles each job's shard leaves
// into a report bit-identical to an in-process sharded run.
//
// Usage:
//
//	sde-serve -listen 127.0.0.1:7117 -http 127.0.0.1:8117 -workers 4
//
// -workers N spawns and supervises N local sde-worker processes
// (respawning any that die); remote workers connect to -listen on their
// own. Jobs are submitted over the HTTP API:
//
//	curl -d '{"spec":{"workload":"collect","topology":"grid:3","packets":2},
//	          "shard_bits":2,"test_cases":8}' http://127.0.0.1:8117/api/v1/jobs
//
// -oracle '<spec json>' computes the same job in-process and prints its
// digest — the string a distributed run's report must reproduce exactly.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"sde"
	"sde/internal/dist"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sde-serve:", err)
		os.Exit(1)
	}
}

func run() error {
	listen := flag.String("listen", "127.0.0.1:7117", "worker protocol listen address")
	httpAddr := flag.String("http", "127.0.0.1:8117", "job API listen address")
	leaseTTL := flag.Duration("lease-ttl", 15*time.Second, "requeue a lease after this long without a heartbeat")
	workers := flag.Int("workers", 0, "spawn and supervise this many local sde-worker processes")
	workerBin := flag.String("worker-bin", "", "sde-worker binary for -workers (default: next to this binary, then $PATH)")
	workdir := flag.String("workdir", "", "base work directory for spawned workers (default: a temp dir)")
	heartbeat := flag.Duration("heartbeat", 500*time.Millisecond, "heartbeat interval passed to spawned workers")
	oracle := flag.String("oracle", "", "compute a spec's in-process digest and exit (JSON ScenarioSpec)")
	oracleBits := flag.Int("oracle-bits", 2, "shard bits for -oracle")
	oracleTestCases := flag.Int("oracle-testcases", 8, "test-case budget for -oracle")
	oracleHorizon := flag.Uint64("oracle-horizon", 0, "depth horizon for -oracle (must match the job's depth_horizon)")
	oracleFanout := flag.Int("oracle-fanout", 0, "horizon fan-out for -oracle (0 = default 2 when a horizon is set; must match the job's horizon_fanout)")
	quiet := flag.Bool("quiet", false, "suppress operational logging")
	flag.Parse()

	if *oracle != "" {
		digest, err := oracleDigest(*oracle, *oracleBits, *oracleTestCases, *oracleHorizon, *oracleFanout)
		if err != nil {
			return err
		}
		fmt.Println(digest)
		return nil
	}
	if *workers < 0 {
		return fmt.Errorf("-workers must be >= 0 (got %d)", *workers)
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	logf := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "sde-serve: %s\n", fmt.Sprintf(format, args...))
	}
	if *quiet {
		logf = func(string, ...any) {}
	}

	coord := dist.NewCoordinator(dist.Options{LeaseTTL: *leaseTTL, Logf: logf})
	defer coord.Close()

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		return fmt.Errorf("listening for workers: %w", err)
	}
	logf("worker protocol on %s", l.Addr())
	serveErr := make(chan error, 2)
	go func() { serveErr <- coord.Serve(l) }()

	httpSrv := &http.Server{Addr: *httpAddr, Handler: coord.HTTPHandler()}
	hl, err := net.Listen("tcp", *httpAddr)
	if err != nil {
		return fmt.Errorf("listening for the job API: %w", err)
	}
	logf("job API on http://%s", hl.Addr())
	go func() {
		if err := httpSrv.Serve(hl); !errors.Is(err, http.ErrServerClosed) {
			serveErr <- err
		}
	}()

	if *workers > 0 {
		if err := spawnFleet(ctx, *workers, *workerBin, *workdir, *heartbeat, l.Addr().String(), logf); err != nil {
			return err
		}
	}

	select {
	case <-ctx.Done():
		logf("shutting down")
	case err := <-serveErr:
		if err != nil {
			return err
		}
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	httpSrv.Shutdown(shutdownCtx)
	return nil
}

// oracleDigest runs a spec in-process and returns the digest a
// distributed run of the same job must match. The (horizon, fanout)
// pair is part of the partition definition, so it must equal the job's —
// a digest from a different horizon legitimately differs.
func oracleDigest(specJSON string, bits, testCases int, horizon uint64, fanout int) (string, error) {
	// Unknown keys are errors, as on the job API: a misspelled feature
	// would otherwise yield the digest of a different job.
	dec := json.NewDecoder(strings.NewReader(specJSON))
	dec.DisallowUnknownFields()
	var spec sde.ScenarioSpec
	if err := dec.Decode(&spec); err != nil {
		return "", fmt.Errorf("parsing -oracle spec: %w", err)
	}
	scenario, err := spec.Scenario()
	if err != nil {
		return "", err
	}
	if bits > scenario.MaxShardBits() {
		bits = scenario.MaxShardBits()
	}
	if scenario.MaxShardBits() == 0 && horizon == 0 {
		fmt.Fprintln(os.Stderr, "sde-serve: note: 0 shardable bits and no -oracle-horizon — a multi-worker fleet would run this spec as a single lease; set depth_horizon on the job (and -oracle-horizon here) to fan it out")
	}
	report, err := sde.RunScenarioShardedWith(scenario, sde.ShardConfig{
		ShardBits:     bits,
		DepthHorizon:  horizon,
		HorizonFanout: fanout,
	})
	if err != nil {
		return "", err
	}
	return report.Digest(testCases)
}

// spawnFleet launches and supervises the local worker processes,
// respawning any that exit while the coordinator lives.
func spawnFleet(ctx context.Context, n int, bin, workdir string, heartbeat time.Duration,
	addr string, logf func(string, ...any)) error {
	if bin == "" {
		found, err := findWorkerBin()
		if err != nil {
			return err
		}
		bin = found
	}
	if workdir == "" {
		dir, err := os.MkdirTemp("", "sde-serve-workers-")
		if err != nil {
			return err
		}
		workdir = dir
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("local-%d", i)
		dir := filepath.Join(workdir, name)
		go superviseWorker(ctx, bin, addr, name, dir, heartbeat, logf)
	}
	return nil
}

// findWorkerBin locates sde-worker next to this binary, then on $PATH.
func findWorkerBin() (string, error) {
	if self, err := os.Executable(); err == nil {
		cand := filepath.Join(filepath.Dir(self), "sde-worker")
		if _, err := os.Stat(cand); err == nil {
			return cand, nil
		}
	}
	if path, err := exec.LookPath("sde-worker"); err == nil {
		return path, nil
	}
	return "", fmt.Errorf("sde-worker binary not found (build it, or pass -worker-bin)")
}

// superviseWorker keeps one worker slot alive: run, log the exit,
// respawn after a short pause.
func superviseWorker(ctx context.Context, bin, addr, name, dir string,
	heartbeat time.Duration, logf func(string, ...any)) {
	for ctx.Err() == nil {
		cmd := exec.CommandContext(ctx, bin,
			"-connect", addr,
			"-name", name,
			"-workdir", dir,
			"-heartbeat", heartbeat.String(),
			"-retry", "500ms",
		)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		logf("worker %s: starting %s", name, bin)
		err := cmd.Run()
		if ctx.Err() != nil {
			return
		}
		logf("worker %s exited (%v), respawning", name, err)
		select {
		case <-ctx.Done():
			return
		case <-time.After(500 * time.Millisecond):
		}
	}
}
