package sde

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"sort"
	"time"

	"sde/internal/sim"
	"sde/internal/snap"
)

// Lease-granular execution: the building blocks of the multi-process
// exploration service (cmd/sde-serve, cmd/sde-worker, internal/dist).
// The unit of distribution is the same unit the in-process shard
// scheduler uses — a (depth, bits) sub-space of the dscenario partition —
// and the wire payload of a finished lease is the shard's final durable
// checkpoint, so crash recovery and result shipping both fall out of the
// existing snapshot + resume machinery:
//
//   - a worker executes a lease with RunShardLease, checkpointing into a
//     directory; if it crashes, the re-issued lease resumes from that
//     directory (or, without shared storage, re-runs the deterministic
//     shard from scratch) — either way the leaf is bit-identical;
//   - the coordinator collects the leaf checkpoints and rebuilds a full
//     ShardedReport with AssembleSharded, which resumes each finished
//     snapshot in-process (replaying zero events);
//   - Digest canonicalises the observable outputs so "bit-identical to an
//     in-process run" is a string comparison.

// ShardItem identifies one sub-space of the dscenario partition: bit i of
// Bits is the pinned value of the i-th shardable drop decision, Depth
// says how many decisions are pinned. Cont, when non-empty, narrows the
// sub-space along the second shard dimension — exploration depth: each
// ContStep records one depth-horizon suspension of the (depth, bits)
// run's frontier and which slice of the fan-out this item continues. It
// is what a ShardQueue holds and what a work lease carries on the wire.
type ShardItem struct {
	Depth int
	Bits  uint64
	Cont  []ContStep `json:",omitempty"`
}

// ContStep is one generation of depth-horizon continuation identity:
// the suspended frontier was partitioned Of ways and this item resumes
// slice Seg. A chain of steps pins the item to one leaf of the
// continuation tree, exactly as (Depth, Bits) pins it to one leaf of the
// failure-decision tree.
type ContStep struct {
	Seg int
	Of  int
}

// maxContFanout bounds one suspension's fan-out (and so HorizonFanout);
// maxContDepth bounds how many horizon generations a single item may
// chain — both are sanity limits on wire-supplied items, far above
// anything a real fleet forms.
const (
	maxContFanout = 4096
	maxContDepth  = 64
)

// Label renders the item for logs: "root" or "bits/depth", with one
// "~seg/of" suffix per continuation generation.
func (it ShardItem) Label() string {
	base := "root"
	if it.Depth != 0 {
		base = fmt.Sprintf("%0*b/%d", it.Depth, it.Bits, it.Depth)
	}
	for _, cs := range it.Cont {
		base += fmt.Sprintf("~%d/%d", cs.Seg, cs.Of)
	}
	return base
}

// Dir names the item's checkpoint subdirectory. The full identity —
// (depth, bits) plus the continuation path — names the sub-space, so a
// re-issued lease finds the crashed worker's snapshot; completed items
// form a prefix-free cover, so directories never collide.
func (it ShardItem) Dir() string {
	base := "root"
	if it.Depth != 0 {
		base = fmt.Sprintf("d%d-%0*b", it.Depth, it.Depth, it.Bits)
	}
	for _, cs := range it.Cont {
		base += fmt.Sprintf("-c%d-%d", cs.Seg, cs.Of)
	}
	return base
}

// validate checks the item against the scenario's shardable set.
func (it ShardItem) validate(s Scenario) error {
	if it.Depth < 0 || it.Depth > s.MaxShardBits() {
		return fmt.Errorf("sde: shard item depth %d outside [0, %d]", it.Depth, s.MaxShardBits())
	}
	if it.Depth < 64 && it.Bits >= 1<<uint(it.Depth) {
		return fmt.Errorf("sde: shard item bits %b wider than depth %d", it.Bits, it.Depth)
	}
	if len(it.Cont) > maxContDepth {
		return fmt.Errorf("sde: shard item chains %d continuations (max %d)", len(it.Cont), maxContDepth)
	}
	for i, cs := range it.Cont {
		if cs.Of < 1 || cs.Of > maxContFanout {
			return fmt.Errorf("sde: continuation step %d fan-out %d outside [1, %d]", i, cs.Of, maxContFanout)
		}
		if cs.Seg < 0 || cs.Seg >= cs.Of {
			return fmt.Errorf("sde: continuation step %d slice %d outside [0, %d)", i, cs.Seg, cs.Of)
		}
	}
	return nil
}

// shardPin maps the item's pinned bits onto the scenario's shardable drop
// decisions (sorted by node id, LSB first).
func (s Scenario) shardPin(it ShardItem) map[string]uint64 {
	armed := sortedShardable(s)
	pin := make(map[string]uint64, it.Depth)
	for bit := 0; bit < it.Depth; bit++ {
		name := fmt.Sprintf("drop_n%d_r0", armed[bit])
		pin[name] = (it.Bits >> uint(bit)) & 1
	}
	return pin
}

// LeaseOptions parameterises RunShardLease.
type LeaseOptions struct {
	// CheckpointDir is where the shard checkpoints and where its final
	// snapshot — the lease's wire payload — is read from. Required.
	CheckpointDir string
	// CheckpointEvery is the checkpoint interval in processed events
	// (0 = the engine default).
	CheckpointEvery int
	// Progress, when non-nil, is polled during the run with the live
	// state count and elapsed wall time; returning true stops the run
	// (LeaseOutcome.Stopped) — how a worker honours a straggler re-split
	// or a job cancellation.
	Progress func(states int, elapsed time.Duration) (stop bool)
	// EventTarget, when non-zero, is the depth horizon for this lease as
	// an absolute cumulative processed-event count: the run suspends once
	// the engine's event counter reaches it and live pre-horizon work
	// remains (LeaseOutcome.Suspended). Being absolute — not relative to
	// the lease start — makes the horizon boundaries of a crashed-and-
	// resumed lease land on exactly the same events.
	EventTarget uint64
	// Continuation is the suspended parent frontier for a continuation
	// item (len(it.Cont) > 0): the snapshot shipped by the worker whose
	// lease suspended. The lease resumes slice Cont[last].Seg of the
	// frontier partitioned Cont[last].Of ways, unless CheckpointDir
	// already holds this item's own (crashed or finished) checkpoint,
	// which takes precedence.
	Continuation []byte
}

// LeaseOutcome is the result of one executed work lease.
type LeaseOutcome struct {
	// Stopped: the Progress hook cut the run short; the partial results
	// are not a sound cover of the sub-space and Snapshot is nil.
	Stopped bool
	// Suspended: the run hit its EventTarget depth horizon with live
	// work remaining. Snapshot is then the surviving frontier — the
	// continuation payload the coordinator fans out as new work items —
	// and Units/Events describe how it may be partitioned and where the
	// next horizon sits.
	Suspended bool
	// Units is the number of independently resumable slices the
	// suspended frontier supports (COB: its dscenario count; COW/SDS: 1,
	// since their states share grouping structure). A fan-out wider than
	// Units is unsatisfiable and must be clamped.
	Units int
	// Events is the cumulative processed-event count at suspension; the
	// continuation generation's EventTarget is Events + horizon.
	Events uint64
	// Report is the shard's report (partial when Stopped or Suspended).
	Report *Report
	// Snapshot is the shard's final durable checkpoint — the bytes a
	// worker streams back to the coordinator. For a suspended lease it is
	// the live frontier rather than a finished leaf.
	Snapshot []byte
}

// RunShardLease executes one work lease: the scenario restricted to the
// item's sub-space, checkpointing into opts.CheckpointDir. A directory
// that already holds a checkpoint — a crashed worker's, or a finished
// run's — is resumed, replaying only what the snapshot does not cover;
// resuming a finished leaf replays nothing. This is the worker half of
// the exploration service.
func RunShardLease(s Scenario, it ShardItem, opts LeaseOptions) (*LeaseOutcome, error) {
	if err := it.validate(s); err != nil {
		return nil, err
	}
	if opts.CheckpointDir == "" {
		return nil, fmt.Errorf("sde: RunShardLease needs a checkpoint directory")
	}
	report, suspend, err := runShard(s, it, opts)
	if err != nil {
		return nil, err
	}
	if report.Stopped() {
		return &LeaseOutcome{Stopped: true, Report: report}, nil
	}
	if report.Suspended() {
		return &LeaseOutcome{
			Suspended: true,
			Units:     report.res.SuspendUnits,
			Events:    report.res.Events,
			Report:    report,
			Snapshot:  suspend,
		}, nil
	}
	data, err := snap.LoadBytes(opts.CheckpointDir)
	if err != nil {
		return nil, fmt.Errorf("sde: reading leaf checkpoint: %w", err)
	}
	return &LeaseOutcome{Report: report, Snapshot: data}, nil
}

// runShard executes one work item of s, for a lease and for the
// in-process pool alike: the scenario restricted to the item's pinned
// decisions, with opts' progress hook and event target, run fresh,
// resumed from the item's own checkpoint in opts.CheckpointDir (when
// set), or — for a continuation item with no checkpoint of its own yet —
// resumed as slice Cont[last].Seg of opts.Continuation partitioned
// Cont[last].Of ways. It returns the report, with its run-time hooks
// scrubbed, plus the continuation snapshot when the run suspended at its
// depth horizon.
func runShard(s Scenario, it ShardItem, opts LeaseOptions) (*Report, []byte, error) {
	shard := s
	cfg := s.cfg
	cfg.Pin = s.shardPin(it)
	cfg.Progress = opts.Progress
	cfg.CheckpointEvery = opts.CheckpointEvery
	cfg.EventBudget = opts.EventTarget
	shard.cfg = cfg
	shard.desc = fmt.Sprintf("%s [shard %s]", s.desc, it.Label())
	dir := opts.CheckpointDir
	var data []byte // the item's own checkpoint, if any
	if dir != "" {
		shard = shard.WithCheckpoints(dir, cfg.CheckpointEvery)
		var err error
		if data, err = snap.LoadBytes(dir); err != nil && !errors.Is(err, snap.ErrNoCheckpoint) {
			return nil, nil, fmt.Errorf("sde: %w", err)
		}
	}
	var eng *sim.Engine
	var err error
	if data != nil {
		eng, err = sim.ResumeEngine(shard.cfg, data)
	} else {
		eng, err = newShardEngine(shard.cfg, it.Cont, opts.Continuation)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("sde: %w", err)
	}
	res, err := eng.Run()
	if err != nil {
		return nil, nil, fmt.Errorf("sde: %w", err)
	}
	report := &Report{res: res, scenario: shard}
	var suspend []byte
	if res.Suspended {
		if dir != "" {
			// Run's final checkpoint write is the continuation payload.
			suspend, err = snap.LoadBytes(dir)
		} else {
			var sp *snap.Snapshot
			sp, err = eng.Snapshot()
			if err == nil {
				suspend, err = sp.Encode(eng.Ctx().Exprs)
			}
		}
		if err != nil {
			return nil, nil, fmt.Errorf("sde: continuation snapshot: %w", err)
		}
	}
	scrubRunHooks(report)
	return report, suspend, nil
}

// newShardEngine builds the engine for an item starting from scratch: a
// plain fresh engine, or a slice of the shipped parent frontier for a
// continuation item.
func newShardEngine(cfg sim.Config, cont []ContStep, parent []byte) (*sim.Engine, error) {
	if len(cont) == 0 {
		return sim.NewEngine(cfg)
	}
	if len(parent) == 0 {
		return nil, fmt.Errorf("sde: continuation item without a parent frontier")
	}
	last := cont[len(cont)-1]
	return sim.ResumeEngineSlice(cfg, parent, last.Seg, last.Of)
}

// scrubRunHooks removes run-time hooks from a report's stored scenario: a
// replay through the report must not be stopped by a stale progress hook
// or event budget, write into a shared cache, or overwrite the shard's
// checkpoint.
func scrubRunHooks(r *Report) {
	r.scenario.cfg.Progress = nil
	r.scenario.cfg.SharedSolverCache = nil
	r.scenario.cfg.CheckpointDir = ""
	r.scenario.cfg.CheckpointEvery = 0
	r.scenario.cfg.EventBudget = 0
}

// ShardLeaf is one completed leaf of a distributed run: the item and its
// final checkpoint as shipped over the wire.
type ShardLeaf struct {
	Item     ShardItem
	Snapshot []byte
}

// AssembleSharded rebuilds a full ShardedReport from shipped shard-leaf
// checkpoints: each snapshot is resumed in-process (replaying zero
// events, since leaves are finished runs) and the reports are ordered and
// aggregated exactly as RunScenarioShardedWith orders an in-process run —
// so a distributed run's report is bit-identical to a local one. The
// leaves must form a prefix-free cover of the shard space (the set of
// completed items of any run does); gaps and overlaps are rejected rather
// than silently under- or double-counted.
func AssembleSharded(s Scenario, leaves []ShardLeaf) (*ShardedReport, error) {
	if len(leaves) == 0 {
		return nil, fmt.Errorf("sde: no shard leaves to assemble")
	}
	items := make([]ShardItem, len(leaves))
	for i, leaf := range leaves {
		if err := leaf.Item.validate(s); err != nil {
			return nil, err
		}
		items[i] = leaf.Item
	}
	if err := verifyCover(items); err != nil {
		return nil, err
	}
	results := make([]leafResult, 0, len(leaves))
	for _, leaf := range leaves {
		shard := s
		shard.cfg.Pin = s.shardPin(leaf.Item)
		eng, err := sim.ResumeEngine(shard.cfg, leaf.Snapshot)
		if err != nil {
			return nil, fmt.Errorf("sde: shard %s: %w", leaf.Item.Label(), err)
		}
		res, err := eng.Run()
		if err != nil {
			return nil, fmt.Errorf("sde: shard %s: %w", leaf.Item.Label(), err)
		}
		results = append(results, leafResult{item: leaf.Item, report: &Report{res: res, scenario: shard}})
	}
	return finalizeSharded(s, results, SchedStats{Resumed: len(results)}), nil
}

// verifyCover checks that the items are a prefix-free, exact cover of the
// two-dimensional shard space. Phase 1 telescopes each (depth, bits)
// base's continuation tree: a suspended run's fan-out produced exactly one
// item per slice, so merging sibling slices bottom-up must collapse each
// base to a single item with an empty continuation path. Phase 2 then
// telescopes the failure-decision tree exactly as before: merging sibling
// bit sub-spaces bottom-up must reach the root exactly once.
func verifyCover(items []ShardItem) error {
	type base struct {
		depth int
		bits  uint64
	}
	// conts[b] maps contKey(path) -> path for every item of base b still
	// uncollapsed.
	conts := make(map[base]map[string][]ContStep)
	for _, it := range items {
		if it.Depth > 62 {
			return fmt.Errorf("sde: shard item depth %d too deep to verify", it.Depth)
		}
		b := base{it.Depth, it.Bits}
		if conts[b] == nil {
			conts[b] = make(map[string][]ContStep)
		}
		key := contKey(it.Cont)
		if _, dup := conts[b][key]; dup {
			return fmt.Errorf("sde: shard %s appears twice", it.Label())
		}
		conts[b][key] = it.Cont
	}
	// Phase 1: collapse each base's continuation leaves to the empty path.
	maxDepth := 0
	set := make(map[base]bool, len(conts))
	for b, paths := range conts {
		if err := collapseContinuations(ShardItem{Depth: b.depth, Bits: b.bits}, paths); err != nil {
			return err
		}
		set[b] = true
		if b.depth > maxDepth {
			maxDepth = b.depth
		}
	}
	// Phase 2: bit telescoping over the collapsed bases.
	for depth := maxDepth; depth > 0; depth-- {
		for b := range set {
			if b.depth != depth {
				continue
			}
			sibling := base{depth, b.bits ^ 1<<uint(depth-1)}
			if !set[sibling] {
				return fmt.Errorf("sde: shard cover is missing the sibling of %s",
					ShardItem{Depth: b.depth, Bits: b.bits}.Label())
			}
			delete(set, b)
			delete(set, sibling)
			parent := base{depth - 1, b.bits &^ (1 << uint(depth-1))}
			if set[parent] {
				return fmt.Errorf("sde: shard %s overlaps its covering prefix %s",
					ShardItem{Depth: b.depth, Bits: b.bits}.Label(),
					ShardItem{Depth: parent.depth, Bits: parent.bits}.Label())
			}
			set[parent] = true
		}
	}
	if !set[base{}] || len(set) != 1 {
		return fmt.Errorf("sde: shard leaves do not cover the space")
	}
	return nil
}

// collapseContinuations telescopes one base's continuation paths to the
// empty path in place: for each path of maximal length, all Of siblings of
// its last step must be present; they merge into their common prefix.
// Anything left over — a missing sibling, or an item that is a prefix of
// another (an overlap: the parent covers everything its slices do) — is an
// invalid cover.
func collapseContinuations(b ShardItem, paths map[string][]ContStep) error {
	maxLen := 0
	for _, p := range paths {
		if len(p) > maxLen {
			maxLen = len(p)
		}
	}
	for l := maxLen; l > 0; l-- {
		level := make([][]ContStep, 0, len(paths))
		for _, p := range paths {
			if len(p) == l {
				level = append(level, p)
			}
		}
		for _, p := range level {
			if _, still := paths[contKey(p)]; !still {
				continue // merged as a sibling of an earlier path this level
			}
			last := p[len(p)-1]
			sib := append([]ContStep(nil), p...)
			for seg := 0; seg < last.Of; seg++ {
				sib[len(sib)-1] = ContStep{Seg: seg, Of: last.Of}
				if _, ok := paths[contKey(sib)]; !ok {
					b.Cont = sib
					return fmt.Errorf("sde: shard cover is missing continuation slice %s", b.Label())
				}
			}
			for seg := 0; seg < last.Of; seg++ {
				sib[len(sib)-1] = ContStep{Seg: seg, Of: last.Of}
				delete(paths, contKey(sib))
			}
			parent := p[:len(p)-1]
			if _, overlap := paths[contKey(parent)]; overlap {
				b.Cont = p
				lbl := b.Label()
				b.Cont = parent
				return fmt.Errorf("sde: shard %s overlaps its covering continuation %s", lbl, b.Label())
			}
			paths[contKey(parent)] = append([]ContStep(nil), parent...)
		}
	}
	if _, root := paths[contKey(nil)]; !root || len(paths) != 1 {
		b.Cont = nil
		return fmt.Errorf("sde: continuation leaves of shard %s do not cover its frontier", b.Label())
	}
	return nil
}

// contKey canonicalises a continuation path for map keying.
func contKey(path []ContStep) string {
	if len(path) == 0 {
		return ""
	}
	var sb []byte
	for _, cs := range path {
		sb = fmt.Appendf(sb, "%d/%d;", cs.Seg, cs.Of)
	}
	return string(sb)
}

// Digest canonicalises the report's observable outputs — per-shard pins,
// state counts, dscenario counts and fingerprints, violations, and up to
// testCases concrete test cases per shard — into a SHA-256 hex string.
// Two runs of the same scenario agree on the digest iff they agree on
// every one of those outputs, so "the distributed run is bit-identical to
// the in-process run" is a string comparison. Both sides must use the
// same testCases limit. Scheduling telemetry, wall times, and
// descriptions are deliberately excluded: they may legitimately differ.
func (r *ShardedReport) Digest(testCases int) (string, error) {
	h := sha256.New()
	for i, sh := range r.Shards {
		fmt.Fprintf(h, "shard %d\n", i)
		writeSortedPin(h, sh.Pin)
		rep := sh.Report
		fmt.Fprintf(h, "states %d\n", rep.States())
		fmt.Fprintf(h, "groups %d\n", rep.Groups())
		fmt.Fprintf(h, "dscenarios %s\n", rep.DScenarios().String())
		writeDScenarioFingerprints(h, rep)
		for _, v := range rep.Violations() {
			fmt.Fprintf(h, "violation node=%d t=%d msg=%q\n", v.Node, v.Time, v.Msg)
			writeSortedPin(h, v.Model)
		}
		if testCases != 0 {
			tcs, err := rep.TestCases(testCases)
			if err != nil {
				return "", fmt.Errorf("sde: digest: %w", err)
			}
			for _, tc := range tcs {
				fmt.Fprintf(h, "testcase %d\n", tc.Index)
				for _, name := range tc.Vars() {
					fmt.Fprintf(h, "  %s=%d\n", name, tc.Inputs[name])
				}
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)), nil
}

func writeSortedPin(w io.Writer, m map[string]uint64) {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "  %s=%d\n", name, m[name])
	}
}

// writeDScenarioFingerprints hashes each represented dscenario — the
// FNV-1a of its per-node state fingerprints — in sorted order, the same
// canonicalisation the sharded-equivalence tests use.
func writeDScenarioFingerprints(w io.Writer, rep *Report) {
	fps := make([]uint64, 0, 64)
	for _, sc := range rep.res.Mapper.Explode(0) {
		fp := uint64(14695981039346656037)
		for _, s := range sc {
			fp ^= s.Fingerprint()
			fp *= 1099511628211
		}
		fps = append(fps, fp)
	}
	sort.Slice(fps, func(i, j int) bool { return fps[i] < fps[j] })
	for _, fp := range fps {
		fmt.Fprintf(w, "fp %016x\n", fp)
	}
}

// sortedShardable returns the scenario's shardable nodes in pinning
// order (ascending node id).
func sortedShardable(s Scenario) []int {
	armed := append([]int(nil), s.shardable...)
	sort.Ints(armed)
	return armed
}
