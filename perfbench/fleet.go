package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"sde/internal/dist"
)

// fleet is an in-process coordinator with poolSize() workers connected
// over plain loopback TCP, each checkpointing into its own directory.
type fleet struct {
	coord   *dist.Coordinator
	dir     string
	cancel  context.CancelFunc
	workers sync.WaitGroup
	served  chan struct{}

	mu         sync.Mutex
	firstLease map[string]time.Time // job id -> first lease granted
	want       int
	connected  int
	ready      chan struct{} // closed once every worker has connected
	gone       chan struct{} // closed once every connected worker has disconnected
}

// The coordinator's log lines for a connected and a disconnected worker,
// and for a granted lease (whose third argument is the job id).
const (
	connectFormat    = "worker %s connected from %s"
	disconnectFormat = "worker %s disconnected (%d leases requeued)"
	leaseFormat      = "lease %d: shard %s of %s -> %s"
)

// startFleet starts the coordinator and its workers and returns once
// every worker has connected.
func startFleet(dir string) (*fleet, error) {
	f := &fleet{dir: dir, served: make(chan struct{}), firstLease: map[string]time.Time{},
		ready: make(chan struct{}), gone: make(chan struct{}), want: poolSize()}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("fleet: listen: %w", err)
	}
	f.coord = dist.NewCoordinator(dist.Options{Logf: f.logf})
	go func() {
		defer close(f.served)
		f.coord.Serve(l)
	}()
	ctx, cancel := context.WithCancel(context.Background())
	f.cancel = cancel
	for i := 0; i < f.want; i++ {
		opts := dist.WorkerOptions{Name: fmt.Sprintf("w%d", i), WorkDir: filepath.Join(dir, fmt.Sprintf("w%d", i))}
		if err := os.MkdirAll(opts.WorkDir, 0o755); err != nil {
			f.close()
			return nil, fmt.Errorf("fleet: %w", err)
		}
		f.workers.Add(1)
		go func() {
			defer f.workers.Done()
			// A worker returns when the fleet closes; an early return
			// shows up as a job that never finishes.
			dist.RunWorker(ctx, l.Addr().String(), opts)
		}()
	}
	select {
	case <-f.ready:
		return f, nil
	case <-time.After(10 * time.Second):
		f.close()
		return nil, errors.New("fleet: workers did not connect within 10s")
	}
}

func (f *fleet) logf(format string, args ...any) {
	now := time.Now()
	f.mu.Lock()
	defer f.mu.Unlock()
	switch format {
	case connectFormat:
		if f.connected++; f.connected == f.want {
			close(f.ready)
		}
	case disconnectFormat:
		if f.connected--; f.connected == 0 {
			close(f.gone)
		}
	case leaseFormat:
		if id, ok := args[2].(string); ok {
			if _, seen := f.firstLease[id]; !seen {
				f.firstLease[id] = now
			}
		}
	}
}

func (f *fleet) firstLeaseAt(job string) (time.Time, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	at, ok := f.firstLease[job]
	return at, ok
}

// collectJob returns the bytes the workers' checkpoints of a finished
// job occupy and removes them, so the work directories stay small.
func (f *fleet) collectJob(job string) (int64, error) {
	var total int64
	for i := 0; i < poolSize(); i++ {
		dir := filepath.Join(f.dir, fmt.Sprintf("w%d", i), job)
		err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.Type().IsRegular() {
				info, err := d.Info()
				if err != nil {
					return err
				}
				total += info.Size()
			}
			return nil
		})
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return 0, fmt.Errorf("fleet: sizing %s: %w", dir, err)
		}
		if err := os.RemoveAll(dir); err != nil {
			return 0, fmt.Errorf("fleet: %w", err)
		}
	}
	return total, nil
}

// leaseCounters reads the coordinator's lease counters, by the per-layer
// metric they feed.
func (f *fleet) leaseCounters() map[string]float64 {
	return map[string]float64{
		"dist.leases":      f.counter("sde_leases_issued_total"),
		"dist.requeues":    f.counter("sde_lease_requeues_total"),
		"dist.cont_leases": f.counter("sde_continuation_leases_total"),
	}
}

// counter sums every series of one coordinator metric family.
func (f *fleet) counter(name string) float64 {
	var buf bytes.Buffer
	f.coord.Registry().WriteTo(&buf)
	total := 0.0
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name+" ") && !strings.HasPrefix(line, name+"{") {
			continue
		}
		fields := strings.Fields(line)
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			total += v
		}
	}
	return total
}

// close stops the workers and the coordinator, waits for all of them to
// return, the coordinator's connection handlers included, and removes
// the work directories.
func (f *fleet) close() error {
	f.cancel()
	f.coord.Close()
	f.workers.Wait()
	<-f.served
	f.mu.Lock()
	connected := f.connected
	f.mu.Unlock()
	var err error
	if connected > 0 {
		select {
		case <-f.gone:
		case <-time.After(10 * time.Second):
			err = errors.New("fleet: workers still connected 10s after close")
		}
	}
	return errors.Join(err, os.RemoveAll(f.dir))
}
