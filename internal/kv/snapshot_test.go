package kv

import (
	"bytes"
	"testing"
	"time"

	"alaska/internal/anchorage"
)

// TestShardedStoreDelAndModes exercises the memcached-shaped API the
// alaskad server depends on: delete, add, replace, and the counters.
func TestShardedStoreDelAndModes(t *testing.T) {
	backend, err := NewAnchorageBackend(anchorage.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := NewShardedStore(backend, 4, 0)
	sess := st.NewSession()
	defer sess.Close()

	// add on a fresh key stores; add again does not.
	if stored, err := setEx(st, sess, "k", []byte("v1"), SetAdd, time.Time{}); err != nil || !stored {
		t.Fatalf("add fresh: stored=%v err=%v", stored, err)
	}
	if stored, err := setEx(st, sess, "k", []byte("v2"), SetAdd, time.Time{}); err != nil || stored {
		t.Fatalf("add existing: stored=%v err=%v", stored, err)
	}
	if v, _ := get(st, sess, "k"); !bytes.Equal(v, []byte("v1")) {
		t.Fatalf("value after failed add = %q, want v1", v)
	}

	// replace on an existing key stores; on a missing key does not.
	if stored, err := setEx(st, sess, "k", []byte("v3"), SetReplace, time.Time{}); err != nil || !stored {
		t.Fatalf("replace existing: stored=%v err=%v", stored, err)
	}
	if stored, err := setEx(st, sess, "nope", []byte("x"), SetReplace, time.Time{}); err != nil || stored {
		t.Fatalf("replace missing: stored=%v err=%v", stored, err)
	}
	if v, _ := get(st, sess, "k"); !bytes.Equal(v, []byte("v3")) {
		t.Fatalf("value after replace = %q, want v3", v)
	}

	// delete: hit then miss; memory is returned.
	usedBefore := backend.UsedBytes()
	if ok, err := del(st, sess, "k"); err != nil || !ok {
		t.Fatalf("del existing: ok=%v err=%v", ok, err)
	}
	if ok, err := del(st, sess, "k"); err != nil || ok {
		t.Fatalf("del missing: ok=%v err=%v", ok, err)
	}
	if v, _ := get(st, sess, "k"); v != nil {
		t.Fatalf("get after del = %q, want nil", v)
	}
	if used := backend.UsedBytes(); used >= usedBefore {
		t.Errorf("used bytes %d -> %d after del, want a decrease", usedBefore, used)
	}

	snap := st.Snapshot()
	if snap.Sets != 4 { // two adds + two replaces all count as set attempts
		t.Errorf("Sets = %d, want 4", snap.Sets)
	}
	if snap.Gets != 3 || snap.Hits != 2 || snap.Misses != 1 {
		t.Errorf("Gets/Hits/Misses = %d/%d/%d, want 3/2/1", snap.Gets, snap.Hits, snap.Misses)
	}
	if snap.DeleteHits != 1 || snap.DeleteMisses != 1 {
		t.Errorf("DeleteHits/Misses = %d/%d, want 1/1", snap.DeleteHits, snap.DeleteMisses)
	}
	if snap.Keys != 0 {
		t.Errorf("Keys = %d, want 0", snap.Keys)
	}
}

// TestShardedStoreEvictionCounter checks evictions are counted in the
// snapshot when MaxMemoryPerShard forces LRU eviction.
func TestShardedStoreEvictionCounter(t *testing.T) {
	st := NewShardedStore(NewMallocBackend(), 1, 4096)
	sess := st.NewSession()
	defer sess.Close()
	val := make([]byte, 1024)
	for i := 0; i < 16; i++ {
		if err := set(st, sess, string(rune('a'+i)), val); err != nil {
			t.Fatal(err)
		}
	}
	snap := st.Snapshot()
	if snap.Evictions == 0 {
		t.Error("no evictions counted under a 4 KiB shard cap")
	}
	if snap.Used > 4096 {
		t.Errorf("used %d exceeds shard cap", snap.Used)
	}
}
