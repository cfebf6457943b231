package kv

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"alaska/internal/anchorage"
)

func TestSessionOffsetAccess(t *testing.T) {
	anch, err := NewAnchorageBackend(anchorage.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for name, b := range map[string]Backend{
		"baseline": NewMallocBackend(), "mesh": NewMeshBackend(3), "anchorage": anch,
	} {
		t.Run(name, func(t *testing.T) {
			sess := b.NewSession()
			defer sess.Close()
			ref, err := b.Alloc(64)
			if err != nil {
				t.Fatal(err)
			}
			if err := sess.Write(ref, 16, []byte("hello")); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, 5)
			if err := sess.Read(ref, 16, got); err != nil {
				t.Fatal(err)
			}
			if string(got) != "hello" {
				t.Errorf("read %q", got)
			}
			// Offset 0 unaffected by offset-16 write beyond byte ranges.
			head := make([]byte, 16)
			if err := sess.Read(ref, 0, head); err != nil {
				t.Fatal(err)
			}
			for _, c := range head {
				if c != 0 {
					t.Errorf("head byte %d nonzero", c)
				}
			}
			if err := b.Free(ref, 64); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestAnchorageSessionOutOfBoundsRejected(t *testing.T) {
	anch, err := NewAnchorageBackend(anchorage.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sess := anch.NewSession()
	defer sess.Close()
	ref, err := anch.Alloc(32)
	if err != nil {
		t.Fatal(err)
	}
	// The pin path checks the intra-object offset against the HTE size —
	// the §3.2 in-bounds assumption, enforced.
	if err := sess.Write(ref, 64, []byte{1}); err == nil {
		t.Error("out-of-bounds session write accepted")
	}
}

func TestBackendNames(t *testing.T) {
	anch, err := NewAnchorageBackend(anchorage.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for want, b := range map[string]Backend{
		"baseline":     NewMallocBackend(),
		"activedefrag": NewActiveDefragBackend(),
		"mesh":         NewMeshBackend(1),
		"anchorage":    anch,
	} {
		if got := b.Name(); got != want {
			t.Errorf("Name = %q, want %q", got, want)
		}
	}
}

func TestActiveDefragNeedsIterator(t *testing.T) {
	b := NewActiveDefragBackend()
	// Without an application iterator nothing can move: Maintain is a
	// no-op — the point of the activedefrag comparison.
	if p := b.Maintain(time.Second); p != 0 {
		t.Errorf("Maintain without iterator paused %v", p)
	}
	if b.Moved != 0 {
		t.Error("moved objects without application knowledge")
	}
}

func TestActiveDefragHonoursMinFrag(t *testing.T) {
	b := NewActiveDefragBackend()
	b.MinFrag = 1000 // never triggers
	s, sess := NewShardedStore(b, 1, 0), SingleThreadedSession(b)
	for i := 0; i < 100; i++ {
		if err := set(s, sess, string(rune('a'+i%26))+string(rune('0'+i/26)), bytes.Repeat([]byte{1}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	b.Maintain(time.Second)
	if b.Moved != 0 {
		t.Error("defragged below the fragmentation threshold")
	}
}

// sparseStore fills a 4-shard store on b with sparseN values — key
// sparseKey(i) holds 100 × byte(i) — and deletes most of the first half
// and a third of the second, leaving sparse runs beside denser ones of
// the same class: what DefragHint looks for. sparseKept(i) survive.
const sparseN = 4000

func sparseKey(i int) string { return fmt.Sprintf("k%05d", i) }
func sparseVal(i int) []byte { return bytes.Repeat([]byte{byte(i)}, 100) }
func sparseKept(i int) bool  { return i%5 == 0 || i >= sparseN/2 && i%3 != 0 }

func sparseStore(t *testing.T, b Backend) (*ShardedStore, Session) {
	t.Helper()
	st := NewShardedStore(b, 4, 0)
	sess := st.NewSession()
	for i := 0; i < sparseN; i++ {
		if err := set(st, sess, sparseKey(i), sparseVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < sparseN; i++ {
		if sparseKept(i) {
			continue
		}
		if _, err := del(st, sess, sparseKey(i)); err != nil {
			t.Fatal(err)
		}
	}
	return st, sess
}

// The application half of activedefrag on the sharded store: once a
// cycle has relocated entries, every key on every shard still reads back
// its own bytes through the rewritten ref, and nothing leaked or was
// freed twice.
func TestActiveDefragRelocatesShardedEntries(t *testing.T) {
	b := NewActiveDefragBackend()
	st, sess := sparseStore(t, b)
	defer sess.Close()
	used := b.UsedBytes()
	st.Maintain(time.Second)
	if b.Moved == 0 {
		t.Fatal("Maintain relocated nothing: the store did not install its iterator")
	}
	if got := b.UsedBytes(); got != used {
		t.Errorf("UsedBytes %d -> %d across relocation", used, got)
	}
	for i := 0; i < sparseN; i++ {
		if v, err := get(st, sess, sparseKey(i)); err != nil || sparseKept(i) && !bytes.Equal(v, sparseVal(i)) {
			t.Fatalf("%s: wrong bytes after relocation (err=%v)", sparseKey(i), err)
		}
	}
}

func TestMeshBackendMaintainMeshes(t *testing.T) {
	b := NewMeshBackend(11)
	s, sess := NewShardedStore(b, 1, 0), SingleThreadedSession(b)
	// Create sparse spans.
	var keys []string
	for i := 0; i < 512; i++ {
		k := string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i/676))
		if err := set(s, sess, k, bytes.Repeat([]byte{byte(i)}, 512)); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	for i, k := range keys {
		if i%8 != 0 {
			if _, err := del(s, sess, k); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := b.RSS()
	var now time.Duration
	for i := 0; i < 50; i++ {
		now += b.MeshInterval
		b.Maintain(now)
	}
	if b.A.MeshCount == 0 {
		t.Error("maintain never meshed")
	}
	if b.RSS() >= before {
		t.Errorf("RSS %d -> %d after meshing", before, b.RSS())
	}
}

func TestAnchorageBackendMaintainDrivesController(t *testing.T) {
	cfg := anchorage.DefaultConfig()
	cfg.SubHeapSize = 64 * 1024
	cfg.FragHigh = 1.3
	cfg.FragLow = 1.05
	b, err := NewAnchorageBackend(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s, sess := NewShardedStore(b, 1, 0), SingleThreadedSession(b)
	// Fragment.
	var keys []string
	for i := 0; i < 2000; i++ {
		k := string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i/676))
		if err := set(s, sess, k, bytes.Repeat([]byte{byte(i)}, 400)); err != nil {
			t.Fatal(err)
		}
		keys = append(keys, k)
	}
	for i, k := range keys {
		if i%5 != 0 {
			if _, err := del(s, sess, k); err != nil {
				t.Fatal(err)
			}
		}
	}
	var now time.Duration
	var paused time.Duration
	for i := 0; i < 100; i++ {
		now += 200 * time.Millisecond
		sess.Safepoint()
		paused += s.Maintain(now)
	}
	if b.Svc.Passes == 0 {
		t.Error("controller never ran a pass")
	}
	if paused == 0 {
		t.Error("no pause time recorded")
	}
	// Survivors intact.
	for i, k := range keys {
		if i%5 != 0 {
			continue
		}
		v, err := get(s, sess, k)
		if err != nil {
			t.Fatal(err)
		}
		if v == nil {
			t.Fatalf("key %q lost", k)
		}
		for _, c := range v {
			if c != byte(i) {
				t.Fatalf("key %q corrupted", k)
			}
		}
	}
}

func TestStoreUsedBytesTracksBackend(t *testing.T) {
	b := NewMallocBackend()
	s, sess := NewShardedStore(b, 1, 0), SingleThreadedSession(b)
	if err := set(s, sess, "a", make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := set(s, sess, "b", make([]byte, 200)); err != nil {
		t.Fatal(err)
	}
	if got := b.UsedBytes(); got != 300 {
		t.Errorf("UsedBytes = %d, want 300", got)
	}
	if _, err := del(s, sess, "a"); err != nil {
		t.Fatal(err)
	}
	if got := b.UsedBytes(); got != 200 {
		t.Errorf("UsedBytes = %d, want 200", got)
	}
}
