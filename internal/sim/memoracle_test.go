package sim

// Test-only access to the modeled-RAM accounting: the full recount the
// running totals must equal at every read, and the probe through which
// the external tests compare against it or read it instead.

import "sde/internal/vm"

// recountBytes computes the modeled footprint from scratch: every
// distinct COW page of the state table and the merged reps counted once,
// plus their per-state overhead and the per-node program images. It is
// the accounting the running totals replaced, kept as their oracle.
func (e *Engine) recountBytes() int64 {
	pages := make(map[uint64]struct{}, 1024)
	var total int64
	count := func(s *vm.State) {
		total += int64(s.OverheadBytes())
		s.ForEachPage(func(id uint64, bytes int) {
			if _, ok := pages[id]; !ok {
				pages[id] = struct{}{}
				total += int64(bytes)
			}
		})
	}
	for _, s := range e.states {
		count(s)
	}
	if e.mergeMgr != nil {
		e.mergeMgr.ForEachRep(count)
	}
	return total + int64(e.cfg.Topo.K())*nodeImageBytes
}

// CheckFootprint makes every footprint read of e — after each event, at
// each sample and at Finish — recount the footprint and report it to
// mismatch when it differs from the running total. The run itself still
// uses the running total.
func CheckFootprint(e *Engine, mismatch func(running, recount int64)) {
	e.memProbe = func(running int64) int64 {
		if rc := e.recountBytes(); rc != running {
			mismatch(running, rc)
		}
		return running
	}
}

// ReadRecount makes e use the full recount instead of its running totals
// at every footprint read.
func ReadRecount(e *Engine) {
	e.memProbe = func(int64) int64 { return e.recountBytes() }
}

// MemBytes returns e's current modeled footprint; call it between Steps.
func MemBytes(e *Engine) int64 { return e.memBytes() }
