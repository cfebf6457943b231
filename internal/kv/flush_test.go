package kv

// flush_all at the store layer: the store-wide epoch is honored lazily
// on access, entries stored after the epoch are untouched, and Maintain's
// sweep reclaims the casualties without any further access.

import (
	"fmt"
	"testing"
	"time"
)

func TestShardedStoreFlushAll(t *testing.T) {
	clk := newManualClock()
	st := NewShardedStore(NewMallocBackend(), 4, 0)
	st.Clock = clk.Now
	sess := st.NewSession()
	defer sess.Close()

	const n = 50
	for i := 0; i < n; i++ {
		if err := set(st, sess, fmt.Sprintf("k%02d", i), []byte("doomed")); err != nil {
			t.Fatal(err)
		}
	}
	clk.Advance(time.Second)
	st.FlushAll(clk.Now()) // immediate epoch

	// Lazy path: an access sees the key as gone.
	if v, err := get(st, sess, "k00"); err != nil || v != nil {
		t.Fatalf("get after flush: %q err=%v, want miss", v, err)
	}
	// Values stored after the epoch are untouched.
	if err := set(st, sess, "fresh", []byte("alive")); err != nil {
		t.Fatal(err)
	}
	// Sweep path: the remaining n-1 doomed keys are reclaimed with no
	// further access — one full scan per shard, then back to normal.
	reclaimed := st.SweepExpired(sweepBudgetPerShard)
	if reclaimed != n-1 {
		t.Errorf("sweep reclaimed %d, want %d", reclaimed, n-1)
	}
	snap := st.Snapshot()
	if snap.Keys != 1 {
		t.Errorf("keys after flush sweep = %d, want 1 (fresh)", snap.Keys)
	}
	if snap.Expired != n {
		t.Errorf("expired = %d, want %d", snap.Expired, n)
	}
	if v, err := get(st, sess, "fresh"); err != nil || string(v) != "alive" {
		t.Fatalf("fresh damaged by flush: %q err=%v", v, err)
	}
	// The epoch is spent: a second sweep finds nothing and the fresh
	// TTL-free key costs nothing to skip.
	if again := st.SweepExpired(sweepBudgetPerShard); again != 0 {
		t.Errorf("second sweep reclaimed %d, want 0", again)
	}
}

func TestShardedStoreFlushAllPendingEpoch(t *testing.T) {
	clk := newManualClock()
	st := NewShardedStore(NewMallocBackend(), 4, 0)
	st.Clock = clk.Now
	sess := st.NewSession()
	defer sess.Close()

	if err := set(st, sess, "old", []byte("v")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(time.Second)
	st.FlushAll(clk.Now().Add(5 * time.Second)) // epoch in the future

	// Nothing dies before the epoch — by access or by sweep.
	if v, err := get(st, sess, "old"); err != nil || v == nil {
		t.Fatalf("get before pending epoch: %q err=%v", v, err)
	}
	if r := st.SweepExpired(sweepBudgetPerShard); r != 0 {
		t.Errorf("sweep before epoch reclaimed %d, want 0", r)
	}
	// A value stored before the epoch arrives is doomed with the rest.
	clk.Advance(time.Second)
	if err := set(st, sess, "mid", []byte("w")); err != nil {
		t.Fatal(err)
	}
	clk.Advance(4 * time.Second) // the epoch arrives
	if r := st.SweepExpired(sweepBudgetPerShard); r != 2 {
		t.Errorf("sweep at epoch reclaimed %d, want 2 (old, mid)", r)
	}
	if st.Len() != 0 {
		t.Errorf("len after epoch sweep = %d, want 0", st.Len())
	}
}
