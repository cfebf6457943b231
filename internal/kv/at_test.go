package kv

// The …At entry points: the caller's instant — not the store's Clock —
// decides liveness, storedAt and the LRU stamp, and the no-now forms are
// the same calls at one reading of the store's Clock.

import (
	"testing"
	"time"
)

func TestGetSetAtDeadlineAndFlushEpoch(t *testing.T) {
	t0 := time.Unix(1_700_000_000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	st := NewShardedStore(NewMallocBackend(), 2, 0)
	// A clock far from every instant used below: any path that still read
	// it would judge all of these entries long dead.
	st.Clock = func() time.Time { return t0.Add(24 * time.Hour) }
	sess := st.NewSession()
	defer sess.Close()

	set := func(key string, mode SetMode, expireAt, now time.Time) bool {
		t.Helper()
		ok, err := st.SetExBytesAt(sess, []byte(key), []byte("v"), mode, expireAt, now)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}
	gets := int64(0)
	hit := func(key string, now time.Time) bool {
		t.Helper()
		gets++
		_, ok, err := st.GetIntoAt(sess, []byte(key), nil, now)
		if err != nil {
			t.Fatal(err)
		}
		return ok
	}

	// Around a deadline: alive strictly before it, dead at and after it,
	// and one instant judges both existence and the store for add/replace.
	set("ttl", SetAlways, at(100), at(0))
	for _, ms := range []int{0, 99} {
		if !hit("ttl", at(ms)) {
			t.Errorf("ttl at +%dms: miss, want hit", ms)
		}
	}
	if set("ttl", SetAdd, at(300), at(99)) {
		t.Error("add over a live entry stored")
	}
	if !set("ttl2", SetAlways, at(100), at(0)) || set("ttl2", SetReplace, time.Time{}, at(100)) {
		t.Error("replace at the deadline revived a dead entry")
	}
	if hit("ttl", at(100)) {
		t.Error("ttl hit at its deadline")
	}
	if !set("ttl", SetAdd, at(300), at(150)) || !hit("ttl", at(299)) || hit("ttl", at(300)) {
		t.Error("add over the dead entry: want stored, alive to +299ms, dead at +300ms")
	}

	// Around a flush epoch at +1000ms: stored before it dies once now
	// reaches it; stored at or after it survives.
	set("before", SetAlways, time.Time{}, at(999))
	set("pending", SetAlways, time.Time{}, at(500))
	st.FlushAll(at(1000))
	if !hit("before", at(999)) {
		t.Error("entry dead before the epoch was reached")
	}
	set("at", SetAlways, time.Time{}, at(1000))
	set("after", SetAlways, time.Time{}, at(1001))
	for key, want := range map[string]bool{"before": false, "pending": false, "at": true, "after": true} {
		if got := hit(key, at(1001)); got != want {
			t.Errorf("%s at +1001ms: hit=%v, want %v", key, got, want)
		}
	}
	if !set("before", SetAdd, time.Time{}, at(1002)) {
		t.Error("add over a flushed entry did not store")
	}

	snap := st.Snapshot()
	if snap.Gets != gets || snap.Hits+snap.Misses != gets || snap.Hits == 0 || snap.Misses == 0 {
		t.Errorf("Gets/Hits/Misses = %d/%d/%d, want %d = hits + misses", snap.Gets, snap.Hits, snap.Misses, gets)
	}
}

// TestGetIntoIsGetIntoAtNow: the no-now forms behave exactly as the At
// forms called with the store's own reading, one reading per call.
func TestGetIntoIsGetIntoAtNow(t *testing.T) {
	clk := newManualClock()
	reads := 0
	st := NewShardedStore(NewMallocBackend(), 2, 0)
	st.Clock = func() time.Time { reads++; return clk.Now() }
	sess := st.NewSession()
	defer sess.Close()

	deadline := clk.Now().Add(time.Second)
	if ok, err := st.SetExBytes(sess, []byte("a"), []byte("v"), SetAlways, deadline); err != nil || !ok {
		t.Fatalf("SetExBytes: ok=%v err=%v", ok, err)
	}
	if ok, err := st.SetExBytesAt(sess, []byte("b"), []byte("v"), SetAlways, deadline, clk.Now()); err != nil || !ok {
		t.Fatalf("SetExBytesAt: ok=%v err=%v", ok, err)
	}
	if reads != 1 {
		t.Fatalf("SetExBytes + SetExBytesAt read the clock %d times, want 1", reads)
	}
	for _, step := range []time.Duration{0, 999 * time.Millisecond, time.Millisecond} {
		clk.Advance(step)
		for _, key := range []string{"a", "b"} {
			reads = 0
			_, plain, err := st.GetInto(sess, []byte(key), nil)
			if err != nil {
				t.Fatal(err)
			}
			if reads != 1 {
				t.Fatalf("GetInto read the clock %d times, want 1", reads)
			}
			_, atNow, err := st.GetIntoAt(sess, []byte(key), nil, clk.Now())
			if err != nil {
				t.Fatal(err)
			}
			if reads != 1 {
				t.Fatalf("GetIntoAt read the store's clock")
			}
			if wantHit := clk.Now().Before(deadline); plain != wantHit || atNow != wantHit {
				t.Fatalf("%s at %v: GetInto=%v GetIntoAt=%v, want %v", key, clk.Now(), plain, atNow, wantHit)
			}
		}
	}
}
