package vm

import (
	"testing"

	"sde/internal/isa"
)

// FuzzLivePageCount replays random sequences of the operations that
// create, share, split and drop memory pages — NewState, Fork, SpecFork,
// StoreWord, Release, Reboot, MergeFreeze and image round-trips — and
// checks the context's live-page count against a direct count after
// every operation: it must equal the number of distinct pages the held
// states reference, and every page's ref must equal its number of
// holders, so no ref ever goes below 0.
func FuzzLivePageCount(f *testing.F) {
	f.Add([]byte{0, 0, 3, 5, 1, 0, 3, 5, 3, 200, 2, 1, 4, 0})
	f.Add([]byte{0, 0, 3, 1, 3, 70, 1, 0, 6, 0, 5, 1, 7, 0, 3, 9, 4, 1})
	f.Add([]byte{3, 3, 1, 0, 1, 1, 7, 2, 3, 130, 6, 1, 1, 1, 5, 0, 4, 2, 4, 0})
	f.Add([]byte{0, 0, 3, 5, 3, 200, 1, 0, 7, 0, 3, 9, 4, 0, 7, 3, 4, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		prog := build(t, func(b *isa.Builder) { b.Func("boot").Ret() })
		ctx := NewContext()
		var held []*State
		frozen := map[*State]bool{} // MergeFreeze left no memory to store into
		seen := map[*page]bool{}

		check := func(step int) {
			t.Helper()
			holders := map[*page]int32{}
			for _, s := range held {
				for _, p := range s.mem.pages {
					holders[p]++
					seen[p] = true
				}
			}
			for p := range seen {
				if p.ref != holders[p] {
					t.Fatalf("op %d: page %d has ref %d, held by %d states", step, p.id, p.ref, holders[p])
				}
			}
			if got := ctx.LivePages(); got != int64(len(holders)) {
				t.Fatalf("op %d: LivePages = %d, held states reference %d distinct pages", step, got, len(holders))
			}
		}

		for i := 0; i+1 < len(ops) && len(held) < 32; i += 2 {
			op, arg := ops[i]%8, int(ops[i+1])
			if op == 0 || len(held) == 0 {
				held = append(held, NewState(ctx, prog, arg%4))
				check(i / 2)
				continue
			}
			k := arg % len(held)
			s := held[k]
			switch op {
			case 1:
				held = append(held, s.Fork())
			case 2:
				held = append(held, s.SpecFork())
			case 3:
				if !frozen[s] {
					// Three pages' worth of addresses, so stores both
					// create pages and split shared ones.
					s.StoreWord(uint32(arg%(3*pageWords)), ctx.Exprs.Const(uint64(arg), WordBits))
				}
			case 4:
				s.Release()
				held = append(held[:k], held[k+1:]...)
			case 5:
				s.Reboot(0, 0)
				delete(frozen, s)
			case 6:
				s.MergeFreeze()
				frozen[s] = true
			case 7:
				pt := NewPageTable()
				imgs := []StateImage{s.Image(pt), held[(k+1)%len(held)].Image(pt)}
				restored, err := RestoreStates(ctx, prog, imgs, pt.Pages())
				if err != nil {
					t.Fatal(err)
				}
				held = append(held, restored...)
			}
			check(i / 2)
		}
	})
}
