package sde

import (
	"strings"
	"testing"
)

// queueScenario is a scenario stub with n shardable drop decisions —
// all a ShardQueue reads of it.
func queueScenario(n int) Scenario {
	s := Scenario{}
	for i := 1; i <= n; i++ {
		s.shardable = append(s.shardable, i)
	}
	return s
}

func labels(ts []*ShardTask) []string {
	out := make([]string, len(ts))
	for i, t := range ts {
		out[i] = t.Item.Label()
	}
	return out
}

func TestNewShardQueueRejects(t *testing.T) {
	cases := []struct {
		name string
		cfg  ShardConfig
		want string
	}{
		{"negative bits", ShardConfig{ShardBits: -1}, "negative shard bits"},
		{"bits above shardable", ShardConfig{ShardBits: 4}, "only 3 shardable"},
		{"negative fanout", ShardConfig{DepthHorizon: 10, HorizonFanout: -1}, "must be >= 0"},
		{"fanout above bound", ShardConfig{DepthHorizon: 10, HorizonFanout: 5000}, "maximum 4096"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewShardQueue(queueScenario(3), tc.cfg)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one naming %q", err, tc.want)
			}
		})
	}
	if _, err := NewShardQueue(queueScenario(3), ShardConfig{DepthHorizon: 10, HorizonFanout: maxContFanout}); err != nil {
		t.Fatalf("fan-out at the bound rejected: %v", err)
	}
}

// TestShardQueueRules pins each partition rule the queue defines: the
// initial enumeration, LIFO pops, requeue-pops-next, split children and
// cap, the suspension fan-out (default, clamp, floor, target, path) and
// the frontier reference count.
func TestShardQueueRules(t *testing.T) {
	pop := func(t *testing.T, q *ShardQueue, want string) *ShardTask {
		t.Helper()
		got := q.Pop()
		if got == nil || got.Item.Label() != want {
			t.Fatalf("Pop = %v, want %s", got, want)
		}
		return got
	}
	cases := []struct {
		name  string
		cfg   ShardConfig
		check func(t *testing.T, q *ShardQueue)
	}{
		{"initial enumeration pops LIFO", ShardConfig{ShardBits: 2, DepthHorizon: 7}, func(t *testing.T, q *ShardQueue) {
			if q.Len() != 4 || q.fanout != defaultHorizonFanout {
				t.Fatalf("Len = %d, fanout = %d; want 4 and the default %d", q.Len(), q.fanout, defaultHorizonFanout)
			}
			for _, want := range []string{"11/2", "10/2", "01/2", "00/2"} {
				task := q.Pop()
				if task.Item.Label() != want || task.Target != 7 || task.Parent() != nil {
					t.Fatalf("Pop = %s target %d, want %s target 7", task.Item.Label(), task.Target, want)
				}
				q.Complete(task)
			}
			if !q.Done() || q.Pop() != nil {
				t.Fatal("drained queue not done")
			}
		}},
		{"no horizon means no fan-out", ShardConfig{HorizonFanout: 3}, func(t *testing.T, q *ShardQueue) {
			if q.fanout != 0 || q.Len() != 1 {
				t.Fatalf("fanout = %d, Len = %d; want 0 and 1", q.fanout, q.Len())
			}
			task := q.Pop()
			if q.Suspend(task, 4, 100, []byte("f")) != nil {
				t.Fatal("suspension without a horizon fanned out")
			}
			if q.Blobs() != 0 || q.Pop() != task {
				t.Fatal("refused suspension was not requeued")
			}
		}},
		{"requeue pops next", ShardConfig{ShardBits: 1}, func(t *testing.T, q *ShardQueue) {
			task := q.Pop()
			q.Requeue(task)
			if q.Done() || q.Pop() != task {
				t.Fatal("requeued item does not pop next")
			}
		}},
		{"split children and cap", ShardConfig{MaxSplitBits: 2}, func(t *testing.T, q *ShardQueue) {
			kids := q.Split(q.Pop())
			if got := strings.Join(labels(kids), " "); got != "0/1 1/1" {
				t.Fatalf("split children = %s", got)
			}
			q.Complete(pop(t, q, "1/1"))
			left := pop(t, q, "0/1")
			if got := strings.Join(labels(q.Split(left)), " "); got != "00/2 10/2" {
				t.Fatalf("second split children = %s", got)
			}
			capped := pop(t, q, "10/2")
			if q.Split(capped) != nil {
				t.Fatal("item at the split cap split")
			}
			pop(t, q, "10/2")
		}},
		{"splitting disabled below ShardBits", ShardConfig{ShardBits: 1, MaxSplitBits: 0}, func(t *testing.T, q *ShardQueue) {
			if q.Split(q.Pop()) != nil {
				t.Fatal("split past MaxSplitBits = ShardBits")
			}
		}},
		{"suspension clamps, floors and chains", ShardConfig{MaxSplitBits: 3, DepthHorizon: 10, HorizonFanout: 3}, func(t *testing.T, q *ShardQueue) {
			kids := q.Suspend(q.Pop(), 2, 12, []byte("a"))
			if got := strings.Join(labels(kids), " "); got != "root~0/2 root~1/2" {
				t.Fatalf("clamped fan-out = %s", got)
			}
			if kids[0].Target != 22 || string(kids[1].Parent()) != "a" || q.Blobs() != 1 {
				t.Fatalf("target %d, parent %q, blobs %d", kids[0].Target, kids[1].Parent(), q.Blobs())
			}
			last := q.Pop()
			if q.Split(last) != nil || q.Pop() != last {
				t.Fatal("continuation item split instead of requeueing")
			}
			chain := q.Suspend(last, 0, 30, []byte("b"))
			if got := strings.Join(labels(chain), " "); got != "root~1/2~0/1" || chain[0].Target != 40 {
				t.Fatalf("floored fan-out = %s target %d", got, chain[0].Target)
			}
			if q.Blobs() != 2 {
				t.Fatalf("blobs = %d, want 2", q.Blobs())
			}
			q.Complete(q.Pop())
			if q.Blobs() != 1 {
				t.Fatalf("blobs = %d after the chain's leaf, want 1", q.Blobs())
			}
			q.Complete(q.Pop())
			if q.Blobs() != 0 || !q.Done() {
				t.Fatalf("blobs = %d, done = %v at the end", q.Blobs(), q.Done())
			}
		}},
		{"drop frees everything", ShardConfig{ShardBits: 1, DepthHorizon: 5}, func(t *testing.T, q *ShardQueue) {
			q.Suspend(q.Pop(), 2, 5, []byte("x"))
			q.Drop()
			if q.Len() != 0 || q.Blobs() != 0 {
				t.Fatalf("Len = %d, Blobs = %d after Drop", q.Len(), q.Blobs())
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q, err := NewShardQueue(queueScenario(3), tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			tc.check(t, q)
		})
	}
}

// FuzzShardQueueCover applies random pop / split / suspend / requeue /
// complete sequences and checks the queue's contract: the completed
// items are an exact cover precisely when Done holds, the frontier count
// matches the frontiers pending and in-flight items still reference, and
// draining the queue always ends in a verified cover with no frontier
// held.
func FuzzShardQueueCover(f *testing.F) {
	f.Add([]byte{1, 2, 1, 2, 0, 2, 0, 3, 4, 9, 0, 1, 0, 4, 0, 1})
	f.Add([]byte{0, 3, 1, 3, 0, 3, 1, 7, 0, 3, 0, 2, 5, 0, 0, 3, 0, 1, 0, 1})
	f.Add([]byte{2, 0, 0, 0, 0, 2, 0, 2, 0, 2, 0, 4, 0, 1, 0, 1, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		cfg := ShardConfig{
			ShardBits:    next() % 3,
			MaxSplitBits: next() % 5,
			DepthHorizon: uint64(next() % 3 * 10),
		}
		cfg.HorizonFanout = next() % 4
		q, err := NewShardQueue(queueScenario(4), cfg)
		if err != nil {
			t.Fatal(err)
		}
		var inFlight []*ShardTask
		var done []ShardItem
		check := func() {
			t.Helper()
			covered := verifyCover(done) == nil
			if q.Done() != covered {
				t.Fatalf("Done = %v but cover complete = %v (%d completed)", q.Done(), covered, len(done))
			}
			held := map[*frontier]bool{}
			for _, task := range append(append([]*ShardTask(nil), q.pending...), inFlight...) {
				if task.parent != nil {
					held[task.parent] = true
				}
			}
			if q.Blobs() != len(held) {
				t.Fatalf("Blobs = %d, but %d frontiers are referenced", q.Blobs(), len(held))
			}
		}
		take := func() *ShardTask {
			i := next() % len(inFlight)
			task := inFlight[i]
			inFlight = append(inFlight[:i], inFlight[i+1:]...)
			return task
		}
		for steps := 0; len(data) > 0 && steps < 200; steps++ {
			op := next() % 5
			if op == 0 || len(inFlight) == 0 {
				if task := q.Pop(); task != nil {
					inFlight = append(inFlight, task)
				}
			} else {
				task := take()
				switch op {
				case 1:
					done = append(done, task.Item)
					q.Complete(task)
				case 2:
					q.Split(task)
				case 3:
					if len(task.Item.Cont) < 6 {
						q.Suspend(task, next()%4, uint64(next()), []byte{1})
					} else {
						q.Requeue(task)
					}
				case 4:
					q.Requeue(task)
				}
			}
			check()
		}
		for len(inFlight) > 0 || q.Len() > 0 {
			if task := q.Pop(); task != nil {
				inFlight = append(inFlight, task)
			}
			task := inFlight[0]
			inFlight = inFlight[1:]
			done = append(done, task.Item)
			q.Complete(task)
			check()
		}
		if err := verifyCover(done); err != nil {
			t.Fatalf("drained queue left a bad cover: %v", err)
		}
		if !q.Done() || q.Blobs() != 0 {
			t.Fatalf("drained queue: done = %v, blobs = %d", q.Done(), q.Blobs())
		}
	})
}
