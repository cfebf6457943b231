package wal

// Warm-restart correctness: every test here drives the real producer
// ring, writer goroutine, and replay path over a temp directory, then
// proves a freshly replayed store is indistinguishable from the one
// that wrote the log — values, TTL deadlines, and the flush_all epoch
// included.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"testing"
	"time"

	"alaska/internal/kv"
)

func newStore() *kv.ShardedStore {
	return kv.NewShardedStore(kv.NewMallocBackend(), 4, 0)
}

// openLog opens a started, store-attached log over dir with the audit
// disabled (tests that want the audit run it by hand via auditOnce).
func openLog(t *testing.T, dir string, store *kv.ShardedStore) *Log {
	t.Helper()
	l, err := Open(Options{Dir: dir, FsyncInterval: 5 * time.Millisecond, AuditInterval: -1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := l.Start(store); err != nil {
		t.Fatalf("start: %v", err)
	}
	store.SetMutationLog(l)
	return l
}

// replayInto opens the log at dir and replays it into a fresh store,
// which is returned alongside the stats. The log is left un-started.
func replayInto(t *testing.T, dir string, store *kv.ShardedStore) (*Log, ReplayStats) {
	t.Helper()
	l, err := Open(Options{Dir: dir, AuditInterval: -1})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	sess := store.NewSession()
	defer sess.Close()
	rs, err := l.Replay(store, sess)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return l, rs
}

// mustSet stores key=value at the store's Clock — the wall clock when it
// has none — the instant a server command would have been handed.
func mustSet(t *testing.T, s *kv.ShardedStore, sess kv.Session, key, value string, expireAt time.Time) {
	t.Helper()
	now := time.Now()
	if s.Clock != nil {
		now = s.Clock()
	}
	if _, err := s.SetExBytesAt(sess, []byte(key), []byte(value), kv.SetAlways, expireAt, now); err != nil {
		t.Fatalf("set %s: %v", key, err)
	}
}

func wantGet(t *testing.T, s *kv.ShardedStore, sess kv.Session, key, want string) {
	t.Helper()
	v, ok, err := s.GetInto(sess, []byte(key), nil)
	if err != nil {
		t.Fatalf("get %s: %v", key, err)
	}
	if !ok {
		t.Fatalf("get %s: miss, want %q", key, want)
	}
	if string(v) != want {
		t.Fatalf("get %s = %q, want %q", key, v, want)
	}
}

func wantMiss(t *testing.T, s *kv.ShardedStore, sess kv.Session, key string) {
	t.Helper()
	if v, ok, _ := s.GetInto(sess, []byte(key), nil); ok {
		t.Fatalf("get %s = %q, want miss", key, v)
	}
}

func TestWarmRestartRoundtrip(t *testing.T) {
	dir := t.TempDir()
	src := newStore()
	l := openLog(t, dir, src)
	sess := src.NewSession()

	far := time.Now().Add(time.Hour)
	mustSet(t, src, sess, "alpha", "one", time.Time{})
	mustSet(t, src, sess, "beta", "two", far)
	mustSet(t, src, sess, "gamma", "three", time.Time{})
	mustSet(t, src, sess, "alpha", "one-v2", time.Time{}) // overwrite
	if _, err := src.DelBytes(sess, []byte("gamma"), time.Now()); err != nil {
		t.Fatalf("del: %v", err)
	}
	// Touch through the public path so the record goes through the hook.
	if ok, err := src.TouchBytes(sess, []byte("beta"), time.Time{}, time.Now()); err != nil || !ok {
		t.Fatalf("touch: ok=%v err=%v", ok, err)
	}
	sess.Close()
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	dst := newStore()
	_, rs := replayInto(t, dir, dst)
	if rs.Sets != 4 || rs.Deletes != 1 || rs.Touches != 1 {
		t.Fatalf("replay stats: %+v", rs)
	}
	if rs.TornRecords != 0 || rs.CrcErrors != 0 {
		t.Fatalf("clean close replayed dirty: %+v", rs)
	}
	dsess := dst.NewSession()
	defer dsess.Close()
	wantGet(t, dst, dsess, "alpha", "one-v2")
	wantGet(t, dst, dsess, "beta", "two")
	wantMiss(t, dst, dsess, "gamma")
	if n := dst.Len(); n != 2 {
		t.Fatalf("replayed Len = %d, want 2", n)
	}
}

// TestReplayPreservesDeadlines proves TTLs come back as absolute
// deadlines: an entry that expired while the server was down is dead on
// arrival, one with remaining life survives with its original deadline.
func TestReplayPreservesDeadlines(t *testing.T) {
	dir := t.TempDir()
	src := newStore()
	now := time.Now()
	clock := now
	src.Clock = func() time.Time { return clock }
	l := openLog(t, dir, src)
	sess := src.NewSession()
	mustSet(t, src, sess, "short", "gone", now.Add(50*time.Millisecond))
	mustSet(t, src, sess, "long", "kept", now.Add(time.Hour))
	sess.Close()
	l.Close()

	// "Restart" 1s later: short's deadline has passed while down.
	dst := newStore()
	dst.Clock = func() time.Time { return now.Add(time.Second) }
	_, rs := replayInto(t, dir, dst)
	if rs.SkippedDead != 1 {
		t.Fatalf("SkippedDead = %d, want 1 (the expired entry)", rs.SkippedDead)
	}
	dsess := dst.NewSession()
	defer dsess.Close()
	wantMiss(t, dst, dsess, "short")
	wantGet(t, dst, dsess, "long", "kept")

	// And the survivor's deadline is the original absolute one: stepping
	// the clock past it kills the entry with no further writes.
	dst.Clock = func() time.Time { return now.Add(2 * time.Hour) }
	wantMiss(t, dst, dsess, "long")
}

// TestFlushEpochSurvivesRestart is the satellite bugfix regression: a
// flush_all — including a future-dated `flush_all <delay>` — must hold
// across a restart, killing exactly the entries stored before the epoch.
func TestFlushEpochSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	src := newStore()
	now := time.Now()
	clock := now
	src.Clock = func() time.Time { return clock }
	l := openLog(t, dir, src)
	sess := src.NewSession()
	mustSet(t, src, sess, "old", "doomed", time.Time{})
	src.FlushAll(now.Add(10 * time.Second)) // flush_all 10
	mustSet(t, src, sess, "mid", "also-doomed", time.Time{})
	clock = now.Add(11 * time.Second) // the epoch fires
	mustSet(t, src, sess, "fresh", "safe", time.Time{})
	sess.Close()
	l.Close()

	// Restart with the clock rewound to BEFORE the delayed epoch: the
	// pre-epoch entries are still live, and the epoch is still armed.
	dst := newStore()
	dclock := now.Add(time.Second)
	dst.Clock = func() time.Time { return dclock }
	_, rs := replayInto(t, dir, dst)
	if rs.Flushes != 1 {
		t.Fatalf("Flushes = %d, want 1", rs.Flushes)
	}
	if dst.FlushEpoch().IsZero() {
		t.Fatal("replay dropped the pending flush epoch")
	}
	dsess := dst.NewSession()
	wantGet(t, dst, dsess, "old", "doomed")
	wantGet(t, dst, dsess, "mid", "also-doomed")
	// The epoch fires while running: the entries stored before it die,
	// the one stored after it survives — replay preserved each record's
	// original storedAt, which is what the epoch check compares against.
	dclock = now.Add(11 * time.Second)
	wantMiss(t, dst, dsess, "old")
	wantMiss(t, dst, dsess, "mid")
	wantGet(t, dst, dsess, "fresh", "safe")
	dsess.Close()

	// Restart AFTER the epoch has passed. "mid" (logged after the flush
	// record) is skipped at replay time and never materializes; "old"
	// (logged before it) replays and then dies lazily against the epoch.
	dst2 := newStore()
	dst2.Clock = func() time.Time { return now.Add(time.Minute) }
	_, rs2 := replayInto(t, dir, dst2)
	if rs2.SkippedDead != 1 {
		t.Fatalf("SkippedDead = %d, want 1 (the post-flush-record doomed entry)", rs2.SkippedDead)
	}
	d2 := dst2.NewSession()
	defer d2.Close()
	wantMiss(t, dst2, d2, "old")
	wantMiss(t, dst2, d2, "mid")
	wantGet(t, dst2, d2, "fresh", "safe")
}

// TestReplayJudgesDeadnessAfterLaterRecords: whether a set record's value
// is dead at the restart can only be said once the records after it are
// in. Each transcript is written by a live store, closed cleanly and
// replayed one second on (a minute on for the flush epoch). Skipping a
// dead set record outright — the rule this replaces — fails the first two:
// "overwrite" read the replaced v1 back, "touch" missed.
func TestReplayJudgesDeadnessAfterLaterRecords(t *testing.T) {
	now := time.Now()
	for _, tc := range []struct {
		name    string
		write   func(t *testing.T, src *kv.ShardedStore, sess kv.Session)
		restart time.Duration
		want    string // "" = miss
		skipped int64  // SkippedDead
		left    int    // Len after replay: the closing sweep leaves nothing dead behind
	}{
		{"overwrite", func(t *testing.T, src *kv.ShardedStore, sess kv.Session) {
			mustSet(t, src, sess, "k", "v1", time.Time{})
			mustSet(t, src, sess, "k", "v2", now.Add(50*time.Millisecond))
		}, time.Second, "", 1, 1},
		{"touch", func(t *testing.T, src *kv.ShardedStore, sess kv.Session) {
			mustSet(t, src, sess, "k", "v", now.Add(50*time.Millisecond))
			if ok, err := src.TouchBytes(sess, []byte("k"), now.Add(time.Hour), now); err != nil || !ok {
				t.Fatalf("touch = %v, %v", ok, err)
			}
		}, time.Second, "v", 1, 2},
		{"overwrite-then-flush-epoch", func(t *testing.T, src *kv.ShardedStore, sess kv.Session) {
			mustSet(t, src, sess, "k", "v1", time.Time{})
			src.FlushAll(now.Add(10 * time.Second))
			mustSet(t, src, sess, "k", "v2", time.Time{})
		}, time.Minute, "", 2, 0}, // the bystander predates the epoch too
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			src := newStore()
			src.Clock = func() time.Time { return now }
			l := openLog(t, dir, src)
			sess := src.NewSession()
			tc.write(t, src, sess)
			mustSet(t, src, sess, "bystander", "b", time.Time{})
			sess.Close()
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}

			dst := newStore()
			dst.Clock = func() time.Time { return now.Add(tc.restart) }
			_, rs := replayInto(t, dir, dst)
			if rs.SkippedDead != tc.skipped {
				t.Errorf("SkippedDead = %d, want %d", rs.SkippedDead, tc.skipped)
			}
			if n := dst.Len(); n != tc.left {
				t.Errorf("Len after replay = %d, want %d", n, tc.left)
			}
			dsess := dst.NewSession()
			defer dsess.Close()
			if tc.want == "" {
				wantMiss(t, dst, dsess, "k")
			} else {
				wantGet(t, dst, dsess, "k", tc.want)
			}
		})
	}
}

// TestCompactRewritesLiveSet proves the snapshot protocol: overwrite
// churn makes the log much larger than the live set; the writer's next
// Step sees the ratio, shrinks the log to ~the live set, and a restart
// from the compacted log recovers exactly the same contents.
func TestCompactRewritesLiveSet(t *testing.T) {
	src := newStore()
	l, t0 := steppedLog(t, Options{CompactMinBytes: 1}, src)
	sess := src.NewSession()
	for round := 0; round < 50; round++ {
		for k := 0; k < 20; k++ {
			mustSet(t, src, sess, fmt.Sprintf("key-%02d", k), fmt.Sprintf("v%d-%d", round, k), time.Time{})
		}
	}
	for k := 10; k < 20; k++ {
		if _, err := src.DelBytes(sess, fmt.Appendf(nil, "key-%02d", k), time.Now()); err != nil {
			t.Fatalf("del: %v", err)
		}
	}
	sess.Close()

	l.Step(at(t0))
	st := l.Stats()
	if st.Compactions != 1 {
		t.Fatalf("Compactions = %d, want 1", st.Compactions)
	}
	if st.SnapshotRecords != 10 {
		t.Fatalf("SnapshotRecords = %d, want 10 live entries", st.SnapshotRecords)
	}
	if st.DiskBytes > st.AppendedBytes/10 {
		t.Fatalf("compaction left %d bytes on disk (appended %d): churn not reclaimed", st.DiskBytes, st.AppendedBytes)
	}

	dst := newStore()
	_, rs := replayInto(t, l.opt.Dir, dst)
	if rs.TornRecords != 0 || rs.CrcErrors != 0 {
		t.Fatalf("compacted log replayed dirty: %+v", rs)
	}
	dsess := dst.NewSession()
	defer dsess.Close()
	for k := 0; k < 10; k++ {
		wantGet(t, dst, dsess, fmt.Sprintf("key-%02d", k), fmt.Sprintf("v49-%d", k))
	}
	for k := 10; k < 20; k++ {
		wantMiss(t, dst, dsess, fmt.Sprintf("key-%02d", k))
	}
}

// overflowRing sets 64 keys of round r through sess, more than a 1 KiB
// ring holds between two Steps.
func overflowRing(t *testing.T, l *Log, src *kv.ShardedStore, sess kv.Session, r int) {
	t.Helper()
	d0 := l.Stats().DroppedRecords
	for i := 0; i < 64; i++ {
		mustSet(t, src, sess, fmt.Sprintf("key-%02d", i), fmt.Sprintf("payload-of-round-%d", r), time.Time{})
	}
	if st := l.Stats(); st.DroppedRecords == d0 {
		t.Fatalf("1KiB ring absorbed 64 records without dropping: %+v", st)
	}
	if !l.GapOpen() {
		t.Fatal("drops did not mark the log for compaction")
	}
}

// wantReplayed replays l's directory into a fresh store and requires
// the 64 keys of overflowRing at round r.
func wantReplayed(t *testing.T, l *Log, r int) {
	t.Helper()
	dst := newStore()
	_, _ = replayInto(t, l.opt.Dir, dst)
	dsess := dst.NewSession()
	defer dsess.Close()
	for i := 0; i < 64; i++ {
		wantGet(t, dst, dsess, fmt.Sprintf("key-%02d", i), fmt.Sprintf("payload-of-round-%d", r))
	}
}

// TestRingOverflowDropsThenCompactHeals: a full ring drops records (the
// request path must never block on a stalled disk), the log flags
// itself for compaction, and the writer's next Step rewrites it from
// the store's authoritative live set — so a subsequent restart is
// complete even though the append stream was not. No Step runs during
// the sets, so the overflow is deterministic.
func TestRingOverflowDropsThenCompactHeals(t *testing.T) {
	src := newStore()
	l, t0 := steppedLog(t, Options{RingBytes: 1 << 10}, src)
	sess := src.NewSession()
	defer sess.Close()
	overflowRing(t, l, src, sess, 0)
	l.Step(at(t0))
	if st := l.Stats(); st.Compactions != 1 || l.GapOpen() {
		t.Fatalf("after one Step: %d compactions, gap open %v; want 1 and closed", st.Compactions, l.GapOpen())
	}
	wantReplayed(t, l, 0)
}

// TestStepCompactsOncePerCooldown: the writer's Step decides compaction
// on its own clock. An overflow followed by Step(t0) compacts once and
// closes the gap; a second overflow inside compactCooldown waits, gap
// open, and Step(t0+compactCooldown) heals it. Mutation: drop the
// cool-down check in Step and the step at half the cool-down compacts.
func TestStepCompactsOncePerCooldown(t *testing.T) {
	src := newStore()
	l, t0 := steppedLog(t, Options{RingBytes: 1 << 10}, src)
	sess := src.NewSession()
	defer sess.Close()
	overflowRing(t, l, src, sess, 0)
	l.Step(at(t0))
	l.Step(at(t0.Add(time.Millisecond)))
	if st := l.Stats(); st.Compactions != 1 || l.GapOpen() {
		t.Fatalf("overflow, then two Steps: %d compactions, gap open %v; want 1 and closed", st.Compactions, l.GapOpen())
	}
	overflowRing(t, l, src, sess, 1)
	l.Step(at(t0.Add(compactCooldown / 2)))
	if st := l.Stats(); st.Compactions != 1 || !l.GapOpen() {
		t.Fatalf("second overflow inside the cool-down: %d compactions, gap open %v; want 1 and open", st.Compactions, l.GapOpen())
	}
	l.Step(at(t0.Add(compactCooldown)))
	if st := l.Stats(); st.Compactions != 2 || l.GapOpen() {
		t.Fatalf("at the cool-down: %d compactions, gap open %v; want 2 and closed", st.Compactions, l.GapOpen())
	}
	wantReplayed(t, l, 1)
}

// TestCompactDumpFsyncs: the appends that race a compaction's dump are
// fsynced on the FsyncInterval as the dump goes, not held to its end.
// The clock doubles as the racing producer: each reading appends one
// record and moves one FsyncInterval on. The dump writes what is staged
// every 512 entries, so every such write fsyncs, and nothing is left
// unsynced when the compaction returns. Mutation: read the clock once
// per compaction and the dump fsyncs nothing (2 fsyncs, not 5).
func TestCompactDumpFsyncs(t *testing.T) {
	const interval, n = 100 * time.Millisecond, 2000
	src := newStore()
	l, t0 := steppedLog(t, Options{FsyncInterval: interval}, src)
	sess := src.NewSession()
	defer sess.Close()
	for i := 0; i < n; i++ {
		mustSet(t, src, sess, fmt.Sprintf("key-%04d", i), "v", time.Time{})
	}
	l.Step(at(t0))
	if st := l.Stats(); st.Fsyncs != 0 || st.Compactions != 0 {
		t.Fatalf("first step: %+v; want the sets written, not synced or compacted", st)
	}
	l.needCompact.Store(true) // as a dropped record would
	clock, raced := t0, 0
	l.Step(func() time.Time {
		l.LogSet(fmt.Appendf(nil, "race-%d", raced), []byte("v"), time.Time{}, clock)
		raced++
		clock = clock.Add(interval)
		return clock
	})
	// One fsync in Step's own write, one in the write the compaction
	// starts with, one per 512 dumped entries.
	if st := l.Stats(); st.Compactions != 1 || st.Fsyncs != 2+n/512 || l.needSync {
		t.Fatalf("compaction under a moving clock: %d compactions, %d fsyncs, unsynced %v; want 1, %d, false",
			st.Compactions, st.Fsyncs, l.needSync, 2+n/512)
	}
}

// TestAuditCountsCleanAndCorrupt drives auditOnce directly over sealed
// segments: a clean seal audits clean; a flipped byte is surfaced as an
// audit error without touching the file.
func TestAuditCountsCleanAndCorrupt(t *testing.T) {
	dir := t.TempDir()
	src := newStore()
	// Small segments so rotation seals quickly.
	l, err := Open(Options{Dir: dir, FsyncInterval: time.Millisecond, SegmentBytes: 4 << 10, AuditInterval: -1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := l.Start(src); err != nil {
		t.Fatalf("start: %v", err)
	}
	src.SetMutationLog(l)
	sess := src.NewSession()
	for i := 0; i < 200; i++ {
		mustSet(t, src, sess, fmt.Sprintf("key-%03d", i), "0123456789abcdef0123456789abcdef", time.Time{})
	}
	sess.Close()
	// Rotation happens on the writer's tick; wait for a sealed segment.
	deadline := time.Now().Add(2 * time.Second)
	for {
		l.segMu.Lock()
		n := len(l.sealed)
		l.segMu.Unlock()
		if n > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	l.auditOnce()
	st := l.Stats()
	if st.AuditRuns != 1 || st.AuditErrors != 0 || st.AuditRecords == 0 {
		t.Fatalf("clean audit: %+v", st)
	}
	l.Close()
}

// TestLogSetAllocFree pins the producer side of the persistence plane:
// appending a set record to fill — header with the CRC left zero,
// payload copy, counters — allocates nothing. This is the property that
// lets alaskad keep its 0 allocs/op request path with -persist on.
func TestLogSetAllocFree(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), AuditInterval: -1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	// Not started: records accumulate in the (8 MiB default) fill, which
	// comfortably holds every iteration below, and no writer goroutine
	// runs to muddy the process-wide allocation count.
	key := []byte("bench:key")
	val := make([]byte, 512)
	stored := time.Now()
	expire := stored.Add(time.Hour)
	if avg := testing.AllocsPerRun(1000, func() {
		l.LogSet(key, val, expire, stored)
	}); avg != 0 {
		t.Fatalf("LogSet allocates %.2f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		l.LogDelete(key)
		l.LogTouch(key, expire)
	}); avg != 0 {
		t.Fatalf("LogDelete+LogTouch allocate %.2f allocs/op, want 0", avg)
	}
	if st := l.Stats(); st.DroppedRecords != 0 {
		t.Fatalf("fill overflowed during the guard (%d drops): result not meaningful", st.DroppedRecords)
	}
}

// steppedLog opens a log over a fresh directory with an active segment
// and no goroutines: the test is the writer, calling Step with a clock
// (at, or its own) that reads the returned time or later ones. src (may
// be nil) is attached as Start attaches it: the compaction source, with
// this log as its mutation log.
func steppedLog(t *testing.T, opt Options, src *kv.ShardedStore) (*Log, time.Time) {
	t.Helper()
	opt.Dir, opt.AuditInterval = t.TempDir(), -1
	l, err := Open(opt)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := l.attach(src); err != nil {
		t.Fatalf("attach: %v", err)
	}
	if src != nil {
		src.SetMutationLog(l)
	}
	t.Cleanup(func() {
		_ = l.Close()
		if l.f != nil {
			_ = l.f.Close()
		}
	})
	return l, l.lastSync
}

// at is a stopped clock: every reading is t.
func at(t time.Time) func() time.Time { return func() time.Time { return t } }

// TestProducerFramingMatchesEncoders: the request path frames records
// itself (CRC left zero, sealed by the writer), compaction through
// record.go's encoders. For every record type — an empty value, a long
// key, a 1 MiB value included — the bytes the writer lands must be the
// encoders' bytes, so the two framings cannot drift apart. Mutation:
// sealing each CRC over the payload minus its last byte fails every case.
func TestProducerFramingMatchesEncoders(t *testing.T) {
	key, longKey := []byte("frame:key"), bytes.Repeat([]byte("K"), 4000)
	val, bigVal := []byte("value"), bytes.Repeat([]byte{0xA5}, 1<<20)
	stored := time.Unix(1700000000, 123)
	expire := stored.Add(time.Hour)
	le64 := func(v time.Time) []byte { return binary.LittleEndian.AppendUint64(nil, uint64(nano(v))) }
	for _, tc := range []struct {
		name string
		log  func(l *Log)
		want []byte
	}{
		{"set", func(l *Log) { l.LogSet(key, val, expire, stored) }, appendSetRecord(nil, key, val, expire, stored)},
		{"set-no-expiry", func(l *Log) { l.LogSet(key, val, time.Time{}, stored) }, appendSetRecord(nil, key, val, time.Time{}, stored)},
		{"set-empty-value", func(l *Log) { l.LogSet(key, nil, expire, stored) }, appendSetRecord(nil, key, nil, expire, stored)},
		{"set-long-key", func(l *Log) { l.LogSet(longKey, val, expire, stored) }, appendSetRecord(nil, longKey, val, expire, stored)},
		{"set-1MiB-value", func(l *Log) { l.LogSet(key, bigVal, expire, stored) }, appendSetRecord(nil, key, bigVal, expire, stored)},
		{"delete", func(l *Log) { l.LogDelete(key) }, appendRecord(nil, recDelete, key)},
		{"delete-long-key", func(l *Log) { l.LogDelete(longKey) }, appendRecord(nil, recDelete, longKey)},
		{"touch", func(l *Log) { l.LogTouch(key, expire) }, appendRecord(nil, recTouch, le64(expire), key)},
		{"touch-no-expiry", func(l *Log) { l.LogTouch(key, time.Time{}) }, appendRecord(nil, recTouch, le64(time.Time{}), key)},
		{"flush", func(l *Log) { l.LogFlushAll(expire) }, appendFlushRecord(nil, expire)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			l, t0 := steppedLog(t, Options{}, nil)
			tc.log(l)
			l.Step(at(t0))
			raw, err := os.ReadFile(l.segPath(l.seq))
			if err != nil {
				t.Fatalf("read segment: %v", err)
			}
			if got := raw[fileHeaderLen:]; !bytes.Equal(got, tc.want) {
				t.Fatalf("segment holds %d bytes, want the encoder's %d:\n got %x\nwant %x",
					len(got), len(tc.want), got[:min(len(got), 48)], tc.want[:min(len(tc.want), 48)])
			}
		})
	}
}

// TestWriteDecoupledFromFsync steps the writer with a stepped clock, no
// sleeps: writes follow the producers, the fsync follows the timer.
// After several write batches every appended byte is on disk with no
// fsync; reaching FsyncInterval after the last sync gives exactly one,
// and a step with nothing new written gives none. Mutation: fsync on
// every step (drop the interval check in flush) and the first step
// already counts one.
func TestWriteDecoupledFromFsync(t *testing.T) {
	const interval = 100 * time.Millisecond
	l, t0 := steppedLog(t, Options{FsyncInterval: interval}, nil)
	val := make([]byte, 512)
	stored := time.Now()
	for b := 1; b <= 3; b++ {
		for l.Stats().AppendedBytes < int64(b*l.batch) {
			l.LogSet(fmt.Appendf(nil, "k%06d", l.Stats().AppendedRecords), val, time.Time{}, stored)
		}
		l.Step(at(t0.Add(time.Duration(b) * interval / 4)))
	}
	st := l.Stats()
	if st.DiskBytes != fileHeaderLen+st.AppendedBytes || st.Fsyncs != 0 {
		t.Fatalf("after 3 write batches: disk %d bytes for %d appended (+%d header), %d fsyncs; want all written, none synced",
			st.DiskBytes, st.AppendedBytes, fileHeaderLen, st.Fsyncs)
	}
	l.Step(at(t0.Add(interval)))
	if st := l.Stats(); st.Fsyncs != 1 {
		t.Fatalf("one FsyncInterval on: %d fsyncs, want 1", st.Fsyncs)
	}
	l.Step(at(t0.Add(3 * interval)))
	if st := l.Stats(); st.Fsyncs != 1 || st.DroppedRecords != 0 {
		t.Fatalf("a step with nothing new written: %d fsyncs, %d dropped; want 1 and 0", st.Fsyncs, st.DroppedRecords)
	}
}
