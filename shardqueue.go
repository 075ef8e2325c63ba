package sde

import "fmt"

// ShardQueue is the work list of one shard partition, and the one place
// that defines its rules: the initial 2^ShardBits enumeration, when an
// item may split and into which two children, how a depth-horizon
// suspension fans out, where a requeued item goes, and when the
// partition is done. The in-process pool (RunScenarioShardedWith) and
// the exploration service's coordinator (internal/dist) both drive one;
// they add only their own transport — goroutines, or leases over TCP.
//
// Whatever the interleaving of Pop, Split, Suspend, Requeue and
// Complete, the completed items plus the pending and in-flight ones form
// a prefix-free cover of the two-dimensional shard space (bits ×
// continuation path), so the completed items alone cover it exactly once
// Done reports true.
//
// Pop order is LIFO: a split's halves and a suspended frontier's slices
// run before unrelated work, which keeps few frontiers alive at once.
// A ShardQueue is not safe for concurrent use; callers hold their own
// lock.
type ShardQueue struct {
	maxSplit int    // items pin at most this many drop decisions
	horizon  uint64 // depth horizon (0 = none)
	fanout   int    // continuation slices per suspension (0 without a horizon)
	pending  []*ShardTask
	inFlight int
	blobs    int // frontiers still referenced by a pending or in-flight item
}

// ShardTask is one work item of a ShardQueue: the sub-space, the
// absolute event count of its next depth horizon (0 = run to
// completion), and — for a continuation item — the suspended frontier it
// resumes a slice of.
type ShardTask struct {
	Item   ShardItem
	Target uint64
	parent *frontier
}

// frontier is a suspended run's continuation payload, reference-counted
// by the items that still need it.
type frontier struct {
	data []byte
	refs int
}

// Parent returns the suspended frontier a continuation item resumes
// from (nil for a plain bit shard).
func (t *ShardTask) Parent() []byte {
	if t.parent == nil {
		return nil
	}
	return t.parent.data
}

// defaultHorizonFanout is how many continuation slices one suspension
// produces when DepthHorizon is set and HorizonFanout is not. Small and
// fixed: each horizon generation doubles the parallelism, so a deep run
// fans out geometrically without the fan-out ever depending on pool or
// fleet size (which would break digest stability).
const defaultHorizonFanout = 2

// NewShardQueue enumerates the partition cfg defines over s: its
// ShardBits, MaxSplitBits, DepthHorizon and HorizonFanout. ShardBits must
// lie in [0, s.MaxShardBits()] and HorizonFanout in [0, 4096] (0 = the
// default, 2). MaxSplitBits below ShardBits disables splitting; above
// MaxShardBits it is clamped.
func NewShardQueue(s Scenario, cfg ShardConfig) (*ShardQueue, error) {
	if cfg.ShardBits < 0 {
		return nil, fmt.Errorf("sde: negative shard bits")
	}
	if n := s.MaxShardBits(); cfg.ShardBits > n {
		return nil, fmt.Errorf("sde: %d shard bits but only %d shardable drop nodes", cfg.ShardBits, n)
	}
	if cfg.HorizonFanout < 0 {
		return nil, fmt.Errorf("sde: HorizonFanout must be >= 0 (got %d); 0 means the default", cfg.HorizonFanout)
	}
	if cfg.HorizonFanout > maxContFanout {
		return nil, fmt.Errorf("sde: HorizonFanout %d exceeds the maximum %d", cfg.HorizonFanout, maxContFanout)
	}
	q := &ShardQueue{
		maxSplit: min(max(cfg.MaxSplitBits, cfg.ShardBits), s.MaxShardBits()),
		horizon:  cfg.DepthHorizon,
	}
	if q.horizon != 0 {
		q.fanout = cfg.HorizonFanout
		if q.fanout == 0 {
			q.fanout = defaultHorizonFanout
		}
	}
	for bits := uint64(0); bits < 1<<uint(cfg.ShardBits); bits++ {
		q.push(&ShardTask{Item: ShardItem{Depth: cfg.ShardBits, Bits: bits}, Target: q.horizon})
	}
	return q, nil
}

// Len returns the number of pending items.
func (q *ShardQueue) Len() int { return len(q.pending) }

// Blobs returns the number of suspended frontiers still held for
// pending or in-flight continuation items.
func (q *ShardQueue) Blobs() int { return q.blobs }

// Done reports whether the partition is finished: nothing pending and
// nothing in flight.
func (q *ShardQueue) Done() bool { return len(q.pending) == 0 && q.inFlight == 0 }

// Pop takes the most recently queued item, or nil when none is pending.
// The item is in flight until it is handed back through exactly one of
// Complete, Split, Suspend or Requeue.
func (q *ShardQueue) Pop() *ShardTask {
	n := len(q.pending)
	if n == 0 {
		return nil
	}
	t := q.pending[n-1]
	q.pending[n-1] = nil
	q.pending = q.pending[:n-1]
	q.inFlight++
	return t
}

// Splittable reports whether an item may be re-partitioned by pinning
// one more drop decision: it pins fewer than maxDepth decisions and is
// not a continuation item, whose pinned decisions already materialised
// inside its parent frontier (the depth dimension subdivides those).
func (it ShardItem) Splittable(maxDepth int) bool {
	return it.Depth < maxDepth && len(it.Cont) == 0
}

// canSplit reports whether Split would re-partition t rather than
// requeue it.
func (q *ShardQueue) canSplit(t *ShardTask) bool { return t.Item.Splittable(q.maxSplit) }

// Complete retires an in-flight item: it finished (a leaf of the cover)
// or failed for good. Its parent frontier loses a reference.
func (q *ShardQueue) Complete(t *ShardTask) {
	q.inFlight--
	q.release(t)
}

// Requeue hands an in-flight item back unfinished; it pops next. It
// keeps its parent frontier: the item will run again.
func (q *ShardQueue) Requeue(t *ShardTask) {
	q.inFlight--
	q.push(t)
}

// Split replaces an in-flight straggler with its two halves, one more
// drop decision pinned, and returns them. The partial run is discarded:
// its states are not a sound cover of the sub-space. An item that cannot
// split is requeued whole instead, and Split returns nil.
func (q *ShardQueue) Split(t *ShardTask) []*ShardTask {
	if !q.canSplit(t) {
		q.Requeue(t)
		return nil
	}
	q.inFlight--
	it := t.Item
	kids := []*ShardTask{
		{Item: ShardItem{Depth: it.Depth + 1, Bits: it.Bits}, Target: t.Target},
		{Item: ShardItem{Depth: it.Depth + 1, Bits: it.Bits | 1<<uint(it.Depth)}, Target: t.Target},
	}
	for _, k := range kids {
		q.push(k)
	}
	return kids
}

// Suspend replaces an in-flight item that stopped at its depth horizon
// with continuation items over its surviving frontier, and returns them.
// The fan-out is the partition's, clamped to the units the frontier
// supports (COW/SDS frontiers suspend as one unit and continue as a
// chain) and at least 1 — never the pool or fleet size, which must not
// shape the partition. Each child appends one ContStep to the path and
// targets events + horizon. A suspension in a partition without a depth
// horizon would leave a hole in the cover: the item is requeued instead,
// and Suspend returns nil.
func (q *ShardQueue) Suspend(t *ShardTask, units int, events uint64, data []byte) []*ShardTask {
	if q.horizon == 0 {
		q.Requeue(t)
		return nil
	}
	q.inFlight--
	q.release(t)
	f := max(min(q.fanout, units), 1)
	fr := &frontier{data: data, refs: f}
	q.blobs++
	kids := make([]*ShardTask, f)
	for seg := range kids {
		cont := make([]ContStep, len(t.Item.Cont)+1)
		copy(cont, t.Item.Cont)
		cont[len(t.Item.Cont)] = ContStep{Seg: seg, Of: f}
		kids[seg] = &ShardTask{
			Item:   ShardItem{Depth: t.Item.Depth, Bits: t.Item.Bits, Cont: cont},
			Target: events + q.horizon,
			parent: fr,
		}
		q.push(kids[seg])
	}
	return kids
}

// Drop abandons the partition: pending items and held frontiers are
// discarded. Items still in flight must not be handed back afterwards.
func (q *ShardQueue) Drop() {
	q.pending = nil
	q.blobs = 0
}

func (q *ShardQueue) push(t *ShardTask) { q.pending = append(q.pending, t) }

// release drops t's reference to its parent frontier; the last one frees
// it.
func (q *ShardQueue) release(t *ShardTask) {
	fr := t.parent
	if fr == nil {
		return
	}
	t.parent = nil
	if fr.refs--; fr.refs == 0 {
		fr.data = nil
		q.blobs--
	}
}
