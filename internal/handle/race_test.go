package handle

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"alaska/internal/mem"
)

// TestShardedIDLayout pins the shard encoding: sequential single-threaded
// allocation must reproduce the seed's ID sequence (0, 1, 2, …) even
// though the shard index lives in the low bits.
func TestShardedIDLayout(t *testing.T) {
	tb := NewTable()
	for want := uint32(0); want < 3*ShardCount; want++ {
		id, err := tb.Alloc(mem.Addr(0x1000+want), 16)
		if err != nil {
			t.Fatal(err)
		}
		if id != want {
			t.Fatalf("alloc #%d gave id %d", want, id)
		}
	}
	if got := tb.Extent(); got != 3*ShardCount {
		t.Fatalf("Extent = %d, want %d", got, 3*ShardCount)
	}
}

// TestShardedFreeReuseAcrossShards verifies the free-list-before-bump rule
// holds globally: a recycled ID parked on a distant shard is found before
// any shard bumps a fresh one.
func TestShardedFreeReuseAcrossShards(t *testing.T) {
	tb := NewTable()
	var ids []uint32
	for i := 0; i < 2*ShardCount; i++ {
		id, err := tb.Alloc(0x1000, 16)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := tb.Free(ids[3]); err != nil {
		t.Fatal(err)
	}
	got, err := tb.Alloc(0x2000, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got != ids[3] {
		t.Fatalf("recycled id = %d, want %d", got, ids[3])
	}
	if tb.Extent() != 2*ShardCount {
		t.Fatalf("Extent = %d, want %d (reuse must not bump)", tb.Extent(), 2*ShardCount)
	}
}

// TestShardedTableRace hammers every table operation from many goroutines
// at once; run under `go test -race`. Each worker owns a private set of
// handles for alloc/free/translate integrity checks while also translating
// other workers' handles and driving the speculative-move protocol against
// a shared victim set, so the CAS paths race against frees, backing swings,
// and each other.
func TestShardedTableRace(t *testing.T) {
	tb := NewTable()
	workers := runtime.GOMAXPROCS(0) * 2
	if workers < 4 {
		workers = 4
	}
	const opsPerWorker = 20000

	// Shared victims for the speculative-move/revalidate/translate race.
	const nVictims = 64
	victimHome := func(i int) mem.Addr { return mem.Addr(0x100000 + uint64(i)*256) }
	victims := make([]uint32, nVictims)
	for i := range victims {
		id, err := tb.Alloc(victimHome(i), 256)
		if err != nil {
			t.Fatal(err)
		}
		victims[i] = id
	}

	var wg sync.WaitGroup
	var translations, commits, aborts atomic.Int64
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			type obj struct {
				id      uint32
				backing mem.Addr
			}
			var mine []obj
			for op := 0; op < opsPerWorker; op++ {
				switch rng.Intn(10) {
				case 0, 1, 2: // alloc
					backing := mem.Addr(0x1000000 + uint64(w)<<32 + uint64(op)*512)
					id, err := tb.Alloc(backing, 512)
					if err != nil {
						t.Error(err)
						return
					}
					mine = append(mine, obj{id, backing})
				case 3: // free
					if len(mine) == 0 {
						continue
					}
					k := rng.Intn(len(mine))
					if err := tb.Free(mine[k].id); err != nil {
						t.Error(err)
						return
					}
					mine = append(mine[:k], mine[k+1:]...)
				case 4, 5, 6: // translate own: must resolve exactly
					if len(mine) == 0 {
						continue
					}
					o := mine[rng.Intn(len(mine))]
					a, err := tb.Translate(Make(o.id, 8))
					if err != nil {
						t.Errorf("translate of live private handle: %v", err)
						return
					}
					if a != o.backing+8 {
						t.Errorf("translate = %#x, want %#x", a, o.backing+8)
						return
					}
					translations.Add(1)
				case 7: // translate a shared victim: any protocol outcome is legal
					id := victims[rng.Intn(nVictims)]
					_, err := tb.Translate(Make(id, 0))
					if err != nil && errors.Is(err, ErrHandleFault) {
						// Accessor side of §7: revalidate in place, abort the move.
						if _, rerr := tb.Revalidate(id); rerr != nil {
							t.Error(rerr)
							return
						}
					}
				case 8: // mover side of §7 on a shared victim
					vi := rng.Intn(nVictims)
					id, home := victims[vi], victimHome(vi)
					if _, err := tb.BeginSpeculativeMove(id); err != nil {
						continue // already moving — another mover won
					}
					if tb.CommitSpeculativeMove(id, home^0x8000000) {
						commits.Add(1)
						// Swing it back home. Home is the victim's fixed
						// address, not the backing Begin observed: another
						// mover may begin between this commit and this
						// swing-back, observe the flipped address, and would
						// "restore" the victim to it. Every commit is followed
						// by its own swing-back to the same address, so the
						// last write to any victim is home.
						if err := tb.SetBacking(id, home); err != nil {
							t.Error(err)
							return
						}
					} else {
						aborts.Add(1)
					}
				case 9: // pins (CountedPins ablation path)
					id := victims[rng.Intn(nVictims)]
					if err := tb.AddPin(id, 1); err != nil {
						t.Error(err)
						return
					}
					if err := tb.AddPin(id, -1); err != nil {
						t.Error(err)
						return
					}
				}
			}
			for _, o := range mine {
				if err := tb.Free(o.id); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	if tb.Live() != nVictims {
		t.Errorf("Live = %d after teardown, want %d", tb.Live(), nVictims)
	}
	// Every victim must have ended valid with its original backing.
	for i, id := range victims {
		a, err := tb.Translate(Make(id, 0))
		if err != nil {
			t.Errorf("victim %d: %v", i, err)
			continue
		}
		if want := victimHome(i); a != want {
			t.Errorf("victim %d backing = %#x, want %#x", i, a, want)
		}
	}
	t.Logf("%d workers: %d private translations, %d move commits, %d move aborts",
		workers, translations.Load(), commits.Load(), aborts.Load())
}

// TestShardedAllocFreeChurnRace drives pure alloc/free churn so ID
// recycling races bump allocation across shards; the invariant is that no
// two live objects ever share an ID (checked via translation integrity).
func TestShardedAllocFreeChurnRace(t *testing.T) {
	tb := NewTable()
	workers := runtime.GOMAXPROCS(0)
	if workers < 4 {
		workers = 4
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Distinct backing per (worker, slot) proves ID exclusivity: if
			// two workers ever held the same ID, one's translation would
			// resolve to the other's backing.
			const slots = 32
			ids := make([]uint32, slots)
			backs := make([]mem.Addr, slots)
			alive := make([]bool, slots)
			rng := rand.New(rand.NewSource(int64(w) + 99))
			for op := 0; op < 30000; op++ {
				k := rng.Intn(slots)
				if alive[k] {
					a, err := tb.Translate(Make(ids[k], 0))
					if err != nil || a != backs[k] {
						t.Errorf("worker %d slot %d: got %#x,%v want %#x", w, k, a, err, backs[k])
						return
					}
					if err := tb.Free(ids[k]); err != nil {
						t.Error(err)
						return
					}
					alive[k] = false
				} else {
					backs[k] = mem.Addr(0x10000 + uint64(w)<<40 + uint64(op)<<8)
					id, err := tb.Alloc(backs[k], 64)
					if err != nil {
						t.Error(err)
						return
					}
					ids[k] = id
					alive[k] = true
				}
			}
			for k := range ids {
				if alive[k] {
					_ = tb.Free(ids[k])
				}
			}
		}(w)
	}
	wg.Wait()
	if tb.Live() != 0 {
		t.Errorf("Live = %d after churn, want 0", tb.Live())
	}
}
