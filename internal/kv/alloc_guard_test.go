//go:build !race

package kv

// Allocation guards for the store proper, on every network-facing
// backend — malloc, mesh, and anchorage built as cmd/alaskad builds it
// (CountedPins). A GET hit allocates nothing: it translates the handle
// without a pin, the copy-out lands in the caller's scratch. An overwrite
// that keeps the value's length allocates nothing either — it keeps its
// handle and block — and one that changes the length pays exactly the
// backend allocator's own. Churning sets against a full memory ceiling —
// every insert evicts a victim, often spilling across shards — allocate
// only the brand-new key's string intern plus whatever the backend's own
// allocator spends on a block, because evicted entry structs are
// recycled through the shard free lists and the intrusive LRU links
// without node allocations. (Excluded under -race: the detector's
// instrumentation allocates.)

import (
	"strconv"
	"testing"
	"time"

	"alaska/internal/anchorage"
	"alaska/internal/rt"
)

// guardBackend pairs a backend with the Go allocations its allocator
// itself makes per allocated value (anchorage: one objInfo record; the
// handle table's packed slot takes none — see hallocAllocs in
// internal/server).
type guardBackend struct {
	name   string
	b      Backend
	halloc float64
}

func guardBackends(t *testing.T) []guardBackend {
	t.Helper()
	anch, err := NewAnchorageBackend(anchorage.DefaultConfig(), rt.WithPinMode(rt.CountedPins))
	if err != nil {
		t.Fatal(err)
	}
	return []guardBackend{
		{"malloc", NewMallocBackend(), 0},
		{"mesh", NewMeshBackend(1), 0},
		{"anchorage", anch, 1},
	}
}

func TestAllocGetIntoHit(t *testing.T) {
	for _, g := range guardBackends(t) {
		t.Run(g.name, func(t *testing.T) {
			s := NewShardedStore(g.b, 8, 0)
			sess := s.NewSession()
			defer sess.Close()
			key := []byte("bench:key")
			if _, err := s.SetExBytes(sess, key, make([]byte, 512), SetAlways, time.Time{}); err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, 0, 512)
			avg := testing.AllocsPerRun(2000, func() {
				if _, hit, err := s.GetInto(sess, key, buf); err != nil || !hit {
					t.Fatalf("GetInto = hit %v, err %v", hit, err)
				}
			})
			if avg != 0 {
				t.Fatalf("GetInto hit allocates %.2f allocs/op, want 0", avg)
			}
		})
	}
}

// TestAllocOverwrite holds both overwrite paths to their figure: 0 when
// the new value has the stored length, the allocator's own when it does
// not (so the allocating path keeps a guard now that the usual steady-
// state set no longer takes it).
func TestAllocOverwrite(t *testing.T) {
	for _, g := range guardBackends(t) {
		t.Run(g.name, func(t *testing.T) {
			s := NewShardedStore(g.b, 8, 0)
			sess := s.NewSession()
			defer sess.Close()
			key, val := []byte("bench:key"), make([]byte, 512)
			i := 0
			set := func(n int) {
				val[0] = byte(i)
				i++
				if _, err := s.SetExBytes(sess, key, val[:n], SetAlways, time.Time{}); err != nil {
					t.Fatal(err)
				}
			}
			set(512)
			if avg := testing.AllocsPerRun(2000, func() { set(512) }); avg != 0 {
				t.Errorf("same-length overwrite allocates %.2f allocs/op, want 0", avg)
			}
			if avg := testing.AllocsPerRun(2000, func() { set(256 + 256*(i&1)) }); avg != g.halloc {
				t.Errorf("length-changing overwrite allocates %.2f allocs/op, want %.0f", avg, g.halloc)
			}
		})
	}
}

func TestAllocEvictionChurnSet(t *testing.T) {
	for _, g := range guardBackends(t) {
		t.Run(g.name, func(t *testing.T) {
			const valLen = 256
			keys := make([][]byte, 4096)
			for i := range keys {
				keys[i] = []byte("churn" + strconv.Itoa(10000+i))
			}
			ceiling := 64 * entryCost(len(keys[0]), valLen)
			s := NewShardedStore(g.b, 8, ceiling)
			sess := s.NewSession()
			defer sess.Close()
			val := make([]byte, valLen)
			// Warm past the fill phase so every measured set runs under pressure.
			for i := 0; i < 512; i++ {
				if _, err := s.SetExBytes(sess, keys[i%len(keys)], val, SetAlways, time.Time{}); err != nil {
					t.Fatal(err)
				}
			}
			i := 512
			avg := testing.AllocsPerRun(2000, func() {
				if _, err := s.SetExBytes(sess, keys[i%len(keys)], val, SetAlways, time.Time{}); err != nil {
					t.Fatal(err)
				}
				i++
			})
			// The single permitted allocation is the new key's string intern.
			if want := 1 + g.halloc; avg > want {
				t.Fatalf("eviction-churn set allocates %.2f allocs/op, want <= %.0f (key intern + backend allocator)", avg, want)
			}
			if snap := s.Snapshot(); snap.Evictions == 0 {
				t.Fatal("no evictions; the guard measured an unpressured store")
			}
		})
	}
}
