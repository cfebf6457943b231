package wal

// Disk-failure behavior: every test here drives the real ring, writer
// goroutine, and replay path through a fault.ScriptFS and proves the
// degradation contract — transient errors retry without losing an
// acknowledged record, failure streaks degrade instead of silently
// discarding, a cleared fault recovers, and the audit still passes over
// what survived.

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"alaska/internal/fault"
	"alaska/internal/kv"
)

// openFaultLog opens a started, store-attached log over dir with the
// given fault FS and a fast failure machine (degrade after 2 failures,
// probe every 5ms).
func openFaultLog(t *testing.T, dir string, store *kv.ShardedStore, fs fault.FS, tweak func(*Options)) *Log {
	t.Helper()
	o := Options{
		Dir:           dir,
		FsyncInterval: 2 * time.Millisecond,
		AuditInterval: -1,
		FS:            fs,
		DegradeAfter:  2,
		ProbeInterval: 5 * time.Millisecond,
	}
	if tweak != nil {
		tweak(&o)
	}
	l, err := Open(o)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := l.Start(store); err != nil {
		t.Fatalf("start: %v", err)
	}
	store.SetMutationLog(l)
	return l
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timeout waiting for %s", what)
}

// TestRetainOnWriteError is the flushBatch regression test: a one-shot
// write error must RETAIN the drained batch and deliver it on the next
// tick — zero acknowledged records lost after replay.
func TestRetainOnWriteError(t *testing.T) {
	dir := t.TempDir()
	sfs := fault.NewScriptFS(nil, fault.Rule{Op: fault.OpWrite, After: 1, Times: 1})
	store := newStore()
	sess := store.NewSession()
	defer sess.Close()
	l := openFaultLog(t, dir, store, sfs, nil)

	for i := 0; i < 50; i++ {
		mustSet(t, store, sess, fmt.Sprintf("k%03d", i), fmt.Sprintf("v%03d", i), time.Time{})
	}
	waitFor(t, "injected write error", func() bool { return l.Stats().IOErrors >= 1 })
	f0 := l.Stats().Fsyncs
	waitFor(t, "post-error flush", func() bool { return l.Stats().Fsyncs > f0 })
	st := l.Stats()
	if st.DroppedRecords != 0 || st.DroppedDegraded != 0 || st.DegradedEntries != 0 {
		t.Fatalf("one-shot write error must not drop or degrade: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	re := newStore()
	rl, rs := replayInto(t, dir, re)
	defer rl.Close()
	if rs.Sets != 50 {
		t.Fatalf("replayed sets = %d, want 50", rs.Sets)
	}
	rsess := re.NewSession()
	defer rsess.Close()
	for i := 0; i < 50; i++ {
		wantGet(t, re, rsess, fmt.Sprintf("k%03d", i), fmt.Sprintf("v%03d", i))
	}
}

// TestShortWriteCompletesFrame steps the writer by hand over a disk that
// cuts writes short. "retry": a write cut mid-frame leaves the frame's
// tail at the head of pending; the retry completes it, and the frames
// staged behind it meanwhile get their CRCs — replayed, every record is
// there with 0 CRC errors. "sticky": a disk that cuts every write
// degrades the log, which truncates the abandoned segment at its last
// whole frame and counts the cut frame as dropped. Mutation: skip
// shifting the CRC-sealed offset in consumeWritten (`l.crcEnd -= n`) and
// "retry" replays with a CRC error — the cut (two small frames long) is
// sized so the stale offset lands on a frame boundary, and the retry
// seals from there, leaving the first two frames behind the cut at CRC 0.
func TestShortWriteCompletesFrame(t *testing.T) {
	const interval = 10 * time.Millisecond
	const smallFrame = recHeaderLen + 20 + 4 + 12
	big, small := fmt.Sprintf("%0200d", 7), "0123456789ab" // 236- and 48-byte frames
	set := func(l *Log, from, to int, value string) {
		for i := from; i < to; i++ {
			l.LogSet(fmt.Appendf(nil, "k%03d", i), []byte(value), time.Time{}, time.Unix(1700000000, 0))
		}
	}

	t.Run("retry", func(t *testing.T) {
		// After=1: the segment header's write passes.
		sfs := fault.NewScriptFS(nil, fault.Rule{Op: fault.OpWrite, After: 1, Times: 1, Short: 2 * smallFrame})
		l, t0 := steppedLog(t, Options{FS: sfs, FsyncInterval: interval}, nil)
		set(l, 0, 3, big)
		l.Step(at(t0))
		if st := l.Stats(); st.IOErrors != 1 || l.fragRemain == 0 {
			t.Fatalf("cut write: %d I/O errors, fragRemain %d; want 1 and a cut frame", st.IOErrors, l.fragRemain)
		}
		set(l, 3, 23, small)
		l.Step(at(t0.Add(interval))) // the backoff (one interval) has passed
		if st := l.Stats(); len(l.pending) != 0 || l.fragRemain != 0 || st.Fsyncs != 1 || st.DegradedEntries != 0 {
			t.Fatalf("retry: pending %d, fragRemain %d, %+v; want everything written and synced", len(l.pending), l.fragRemain, st)
		}
		re := newStore()
		_, rs := replayInto(t, filepath.Dir(l.segPath(l.seq)), re)
		if rs.Sets != 23 || rs.CrcErrors != 0 || rs.TornRecords != 0 {
			t.Fatalf("replay: %+v; want 23 sets, 0 CRC errors, 0 torn", rs)
		}
		sess := re.NewSession()
		defer sess.Close()
		for i := 0; i < 23; i++ {
			want := small
			if i < 3 {
				want = big
			}
			wantGet(t, re, sess, fmt.Sprintf("k%03d", i), want)
		}
	})

	t.Run("sticky", func(t *testing.T) {
		sfs := fault.NewScriptFS(nil, fault.Rule{Op: fault.OpWrite, After: 1, Short: 100})
		l, t0 := steppedLog(t, Options{FS: sfs, FsyncInterval: interval, DegradeAfter: 2}, nil)
		set(l, 0, 10, small)
		path := l.segPath(l.seq)
		l.Step(at(t0))               // 100 bytes: two frames and 4 bytes of the third
		l.Step(at(t0.Add(interval))) // 100 more: the third completes, a fourth, 8 bytes of the fifth
		if !l.Degraded() {
			t.Fatalf("two cut writes at DegradeAfter 2 left the log healthy")
		}
		const clean = fileHeaderLen + 4*smallFrame
		if info, err := os.Stat(path); err != nil || info.Size() != clean {
			t.Fatalf("abandoned segment: %v, err %v; want %d bytes (4 whole frames)", info.Size(), err, clean)
		}
		if st := l.Stats(); st.DroppedRecords != 1 {
			t.Fatalf("dropped %d records, want the 1 cut frame", st.DroppedRecords)
		}
		re := newStore()
		_, rs := replayInto(t, filepath.Dir(path), re)
		if rs.Sets != 4 || rs.CrcErrors != 0 || rs.TornRecords != 0 {
			t.Fatalf("replay: %+v; want 4 sets, 0 CRC errors, 0 torn", rs)
		}
	})
}

// TestRetainOnFsyncError: a one-shot fsync error keeps needSync armed
// and retries; the fsync counter moves only on success.
func TestRetainOnFsyncError(t *testing.T) {
	dir := t.TempDir()
	// After=1 lets the segment-header sync at Start pass.
	sfs := fault.NewScriptFS(nil, fault.Rule{Op: fault.OpSync, After: 1, Times: 1})
	store := newStore()
	sess := store.NewSession()
	defer sess.Close()
	l := openFaultLog(t, dir, store, sfs, nil)

	for i := 0; i < 20; i++ {
		mustSet(t, store, sess, fmt.Sprintf("k%03d", i), "v", time.Time{})
	}
	waitFor(t, "injected fsync error", func() bool { return l.Stats().IOErrors >= 1 })
	f0 := l.Stats().Fsyncs
	waitFor(t, "post-error fsync", func() bool { return l.Stats().Fsyncs > f0 })
	if st := l.Stats(); st.DegradedEntries != 0 || st.State != "healthy" {
		t.Fatalf("one-shot fsync error must not degrade: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	re := newStore()
	rl, rs := replayInto(t, dir, re)
	defer rl.Close()
	if rs.Sets != 20 {
		t.Fatalf("replayed sets = %d, want 20", rs.Sets)
	}
}

// TestDegradedEntryExitWriteFault: a sticky write fault trips the
// degradation machine; the retained pending batch survives the outage
// and lands after recovery, while appends made during degraded mode are
// counted as dropped_degraded (distinct from ring-overflow drops) and
// come back from the store in the compaction recovery schedules.
// The sticky remove fault alongside it forces the recovery probe
// through the EEXIST path (a failed probe's cleanup is itself faulted).
func TestDegradedEntryExitWriteFault(t *testing.T) {
	dir := t.TempDir()
	sfs := fault.NewScriptFS(nil,
		fault.Rule{Op: fault.OpWrite, After: 1, Times: 0},
		fault.Rule{Op: fault.OpRemove, Times: 0},
	)
	store := newStore()
	sess := store.NewSession()
	defer sess.Close()
	l := openFaultLog(t, dir, store, sfs, nil)
	noCompactionYet(t, l)

	// Acknowledged before the writer can flush: these ride the pending
	// buffer through the whole outage.
	mustSet(t, store, sess, "held1", "v1", time.Time{})
	mustSet(t, store, sess, "held2", "v2", time.Time{})

	waitFor(t, "degraded entry", l.Degraded)
	st := l.Stats()
	if st.DegradedEntries != 1 || st.State != "degraded" {
		t.Fatalf("stats after degrade = %+v", st)
	}
	if l.DegradedSince().IsZero() {
		t.Fatalf("DegradedSince zero while degraded")
	}

	// Appends in degraded mode are rejected up front and counted.
	mustSet(t, store, sess, "lost-in-gap", "x", time.Time{})
	waitFor(t, "dropped_degraded count", func() bool { return l.Stats().DroppedDegraded >= 1 })
	if st := l.Stats(); st.DroppedRecords != 0 {
		t.Fatalf("degraded drops must not hit the ring-overflow counter: %+v", st)
	}

	// Let a few probes fail (each create leaves a stale file the faulted
	// remove can't clean; the next probe must take the EEXIST path).
	time.Sleep(20 * time.Millisecond)

	sfs.Clear()
	waitFor(t, "recovery", func() bool { return !l.Degraded() })
	st = l.Stats()
	if st.Recoveries != 1 {
		t.Fatalf("recoveries = %d, want 1", st.Recoveries)
	}
	// The writer may already have run it: either the mark is still up or
	// the compaction happened (a degraded writer compacts nothing, and
	// none ran before the outage).
	waitFor(t, "recovery to schedule a compaction closing the gap", func() bool { return compactScheduled(l) })
	if !l.DegradedSince().IsZero() {
		t.Fatalf("DegradedSince must reset on recovery")
	}

	mustSet(t, store, sess, "post", "v3", time.Time{})
	waitFor(t, "post-recovery flush", func() bool { return l.Stats().Fsyncs >= 1 })
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	re := newStore()
	rl, _ := replayInto(t, dir, re)
	defer rl.Close()
	rsess := re.NewSession()
	defer rsess.Close()
	wantGet(t, re, rsess, "held1", "v1")
	wantGet(t, re, rsess, "held2", "v2")
	wantGet(t, re, rsess, "post", "v3")
	// "lost-in-gap" was dropped by contract while degraded; the live store
	// still had it, and Close ran the compaction recovery scheduled, so the
	// log copy is healed.
	wantGet(t, re, rsess, "lost-in-gap", "x")
}

// TestDegradedRecoveryAuditClean: sticky fsync fault → degraded →
// recovery → compaction; the background audit then verifies every
// surviving frame. This is the sync-sided twin of the write-fault test
// (writes land but never become durable) and proves the abandoned
// segment is registered at a frame-clean size.
func TestDegradedRecoveryAuditClean(t *testing.T) {
	dir := t.TempDir()
	sfs := fault.NewScriptFS(nil, fault.Rule{Op: fault.OpSync, After: 2, Times: 0})
	store := newStore()
	sess := store.NewSession()
	defer sess.Close()
	l := openFaultLog(t, dir, store, sfs, nil)

	mustSet(t, store, sess, "pre", "v", time.Time{})
	waitFor(t, "pre-fault fsync", func() bool { return l.Stats().Fsyncs >= 1 })
	mustSet(t, store, sess, "mid1", "v1", time.Time{})
	mustSet(t, store, sess, "mid2", "v2", time.Time{})
	waitFor(t, "degraded entry", l.Degraded)

	sfs.Clear()
	waitFor(t, "recovery", func() bool { return !l.Degraded() })
	mustSet(t, store, sess, "post", "v3", time.Time{})
	// Recovery marked the log; the writer's next Step heals it.
	waitFor(t, "heal compaction", func() bool { return !l.GapOpen() && l.Stats().Compactions == 1 })

	l.auditOnce()
	st := l.Stats()
	if st.AuditRuns != 1 || st.AuditErrors != 0 {
		t.Fatalf("audit after recovery = %+v, want 1 clean run", st)
	}
	if st.Compactions != 1 {
		t.Fatalf("compactions = %d, want 1", st.Compactions)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// The compaction rewrote the log from the live store, so even the
	// records that were only ever page-cache resident are now durable.
	re := newStore()
	rl, _ := replayInto(t, dir, re)
	defer rl.Close()
	rsess := re.NewSession()
	defer rsess.Close()
	for _, kv := range [][2]string{{"pre", "v"}, {"mid1", "v1"}, {"mid2", "v2"}, {"post", "v3"}} {
		wantGet(t, re, rsess, kv[0], kv[1])
	}
}

// TestRotateFailureDegrades: a failed openSegment after a rotate used
// to leave l.f == nil and silently discard every future batch. Now it
// routes through the degradation machine: pending is retained, the
// reopen is retried, the failure streak degrades, and a cleared fault
// recovers with nothing acknowledged lost.
func TestRotateFailureDegrades(t *testing.T) {
	dir := t.TempDir()
	sfs := fault.NewScriptFS(nil, fault.Rule{Op: fault.OpCreate, After: 1, Times: 0})
	store := newStore()
	sess := store.NewSession()
	defer sess.Close()
	l := openFaultLog(t, dir, store, sfs, func(o *Options) {
		o.SegmentBytes = 256 // force an early rotate
	})

	var i int
	for ; i < 8; i++ {
		mustSet(t, store, sess, fmt.Sprintf("k%03d", i), "0123456789abcdef0123456789abcdef", time.Time{})
	}
	waitFor(t, "rotate attempt + degrade", l.Degraded)
	st := l.Stats()
	if st.Rotations < 1 {
		t.Fatalf("rotations = %d, want >=1 (seal succeeded, open failed)", st.Rotations)
	}
	if st.DroppedRecords != 0 {
		t.Fatalf("rotate failure dropped records: %+v", st)
	}

	mustSet(t, store, sess, "gap", "x", time.Time{})
	waitFor(t, "dropped_degraded", func() bool { return l.Stats().DroppedDegraded >= 1 })

	sfs.Clear()
	waitFor(t, "recovery", func() bool { return !l.Degraded() })
	mustSet(t, store, sess, "post", "v", time.Time{})
	f0 := l.Stats().Fsyncs
	waitFor(t, "post-recovery flush", func() bool { return l.Stats().Fsyncs > f0 })
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	re := newStore()
	rl, _ := replayInto(t, dir, re)
	defer rl.Close()
	rsess := re.NewSession()
	defer rsess.Close()
	for j := 0; j < i; j++ {
		wantGet(t, re, rsess, fmt.Sprintf("k%03d", j), "0123456789abcdef0123456789abcdef")
	}
	wantGet(t, re, rsess, "post", "v")
	// Dropped while degraded, healed by the compaction Close ran.
	wantGet(t, re, rsess, "gap", "x")
}

// TestSealSyncErrorKeepsSegmentActive: sealActive must NOT register a
// segment whose final sync failed — it stays active for retry.
func TestSealSyncErrorKeepsSegmentActive(t *testing.T) {
	dir := t.TempDir()
	sfs := fault.NewScriptFS(nil, fault.Rule{Op: fault.OpSync, After: 1, Times: 0})
	l, err := Open(Options{Dir: dir, AuditInterval: -1, FS: sfs})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	if err := l.openSegment(); err != nil { // header sync passes (After=1)
		t.Fatalf("openSegment: %v", err)
	}
	if err := l.sealActive(); err == nil {
		t.Fatalf("sealActive with failing sync returned nil")
	}
	if l.f == nil {
		t.Fatalf("segment must stay active after a failed seal")
	}
	l.segMu.Lock()
	n := len(l.sealed)
	l.segMu.Unlock()
	if n != 0 {
		t.Fatalf("a segment with a failed sync was registered as sealed")
	}
	sfs.Clear()
	if err := l.sealActive(); err != nil {
		t.Fatalf("sealActive after clear: %v", err)
	}
	l.segMu.Lock()
	n = len(l.sealed)
	l.segMu.Unlock()
	if n != 1 || l.f != nil {
		t.Fatalf("retried seal: sealed=%d f=%v", n, l.f)
	}
}

// TestSealCloseErrorCounted: a close failure after a successful sync
// cannot lose data; the seal proceeds and the error is counted.
func TestSealCloseErrorCounted(t *testing.T) {
	dir := t.TempDir()
	sfs := fault.NewScriptFS(nil, fault.Rule{Op: fault.OpClose, Times: 1})
	store := newStore()
	sess := store.NewSession()
	defer sess.Close()
	l := openFaultLog(t, dir, store, sfs, func(o *Options) {
		o.SegmentBytes = 256
	})
	for i := 0; i < 8; i++ {
		mustSet(t, store, sess, fmt.Sprintf("k%03d", i), "0123456789abcdef0123456789abcdef", time.Time{})
	}
	waitFor(t, "rotation past close error", func() bool { return l.Stats().Rotations >= 1 })
	st := l.Stats()
	if st.IOErrors < 1 {
		t.Fatalf("close error not counted: %+v", st)
	}
	if st.DegradedEntries != 0 {
		t.Fatalf("close-after-sync must not degrade: %+v", st)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	re := newStore()
	rl, rs := replayInto(t, dir, re)
	defer rl.Close()
	if rs.Sets != 8 {
		t.Fatalf("replayed sets = %d, want 8", rs.Sets)
	}
}

// TestENOSPCFlagsCompaction: an ENOSPC failure schedules a compaction
// (reclaiming space from the live set) in addition to the retry path.
func TestENOSPCFlagsCompaction(t *testing.T) {
	dir := t.TempDir()
	sfs := fault.NewScriptFS(nil, fault.Rule{Op: fault.OpWrite, After: 1, Times: 1, Err: syscall.ENOSPC})
	store := newStore()
	sess := store.NewSession()
	defer sess.Close()
	l := openFaultLog(t, dir, store, sfs, nil)
	defer l.Close()
	noCompactionYet(t, l)

	mustSet(t, store, sess, "k", "v", time.Time{})
	waitFor(t, "ENOSPC error", func() bool { return l.Stats().IOErrors >= 1 })
	waitFor(t, "ENOSPC to flag compaction", func() bool { return compactScheduled(l) })
}

// noCompactionYet fails unless l has run no compaction. Called before a
// test's fault fires, it makes compactScheduled's count the compaction the
// fault scheduled: nothing else can start one in these tests, whose few
// records stay far below CompactMinBytes' size trigger.
func noCompactionYet(t *testing.T, l *Log) {
	t.Helper()
	if c := l.Stats().Compactions; c != 0 {
		t.Fatalf("%d compactions before the fault, want 0", c)
	}
}

// compactScheduled reports whether l is marked for a compaction or has run
// one: a test that checks the mark races the writer's Step, which clears
// it as the compaction starts.
func compactScheduled(l *Log) bool { return l.needCompact.Load() || l.Stats().Compactions > 0 }

// TestCompactRenameFault: a faulted snapshot rename fails the heal
// compaction cleanly — counted, tmp removed, log still healthy — and
// leaves the durability gap open, so the Step past the cool-down heals
// it and a replay returns every key, the dropped records included.
// Mutation: drop the restore of the mark in compact and the gap reads
// closed after the failure (nothing would heal it, not even Close).
func TestCompactRenameFault(t *testing.T) {
	sfs := fault.NewScriptFS(nil, fault.Rule{Op: fault.OpRename, Times: 1})
	store := newStore()
	l, t0 := steppedLog(t, Options{FS: sfs, RingBytes: 1 << 10}, store)
	sess := store.NewSession()
	defer sess.Close()
	overflowRing(t, l, store, sess, 0)

	l.Step(at(t0))
	st := l.Stats()
	if st.Compactions != 0 || st.IOErrors != 1 {
		t.Fatalf("faulted compaction = %+v, want 0 compactions and 1 counted error", st)
	}
	if l.Degraded() {
		t.Fatalf("a failed compaction must not degrade the log")
	}
	if !l.GapOpen() {
		t.Fatalf("a failed heal closed the gap: the dropped records are on no disk")
	}
	l.Step(at(t0.Add(compactCooldown)))
	if st := l.Stats(); st.Compactions != 1 || l.GapOpen() {
		t.Fatalf("retried heal = %+v, gap open %v; want 1 compaction and the gap closed", st, l.GapOpen())
	}
	wantReplayed(t, l, 0)
}

// TestTruncateFaultOnReplay: replay's torn-tail truncation routes
// through the FS; a faulted truncate leaves the tail in place without
// failing the replay (best-effort warm restart).
func TestTruncateFaultOnReplay(t *testing.T) {
	dir := t.TempDir()
	store := newStore()
	sess := store.NewSession()
	l := openLog(t, dir, store)
	mustSet(t, store, sess, "k", "v", time.Time{})
	waitFor(t, "flush", func() bool { return l.Stats().Fsyncs >= 1 })
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	sess.Close()

	// Tear the tail by hand, then replay through a truncate-faulted FS.
	segs, err := filepath.Glob(filepath.Join(dir, "pack-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	tf, err := os.OpenFile(segs[len(segs)-1], os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("tear open: %v", err)
	}
	if _, err := tf.Write([]byte{0x5A, 0xA1, 0x01}); err != nil {
		t.Fatalf("tear write: %v", err)
	}
	_ = tf.Close()

	sfs := fault.NewScriptFS(nil, fault.Rule{Op: fault.OpTruncate, Times: 0})
	rl, err := Open(Options{Dir: dir, AuditInterval: -1, FS: sfs})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	re := newStore()
	rsess := re.NewSession()
	defer rsess.Close()
	rs, err := rl.Replay(re, rsess)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rs.Sets != 1 || rs.TornRecords != 1 {
		t.Fatalf("replay stats = %+v, want 1 set + 1 torn", rs)
	}
	wantGet(t, re, rsess, "k", "v")
}

// TestCloseHealsRingOverflow: a writer stalled in a slow write lets a 1 KiB
// ring overflow, so the dropped records are on no disk when Close runs —
// inside the compaction cool-down, with no maintenance loop to ask for the
// heal. Close must run it: replayed into a fresh store, every key holds its
// last acknowledged value. Fails if the writer's quit path skips the
// compaction (the final drain then saves only what the ring still held).
func TestCloseHealsRingOverflow(t *testing.T) {
	dir := t.TempDir()
	// Latency only: the rule never arms, so no write fails.
	sfs := fault.NewScriptFS(nil, fault.Rule{Op: fault.OpWrite, After: math.MaxInt, Delay: 50 * time.Millisecond})
	store := newStore()
	sess := store.NewSession()
	defer sess.Close()
	l := openFaultLog(t, dir, store, sfs, func(o *Options) { o.RingBytes = 1 << 10 })

	// Eight rounds over 32 keys: the writer wakes at a write batch (a
	// quarter of the ring) and sleeps in its write while the rest
	// overflow, the last round included.
	last := make(map[string]string)
	for r := 0; r < 8; r++ {
		for k := 0; k < 32; k++ {
			key, val := fmt.Sprintf("k%02d", k), fmt.Sprintf("round-%d-of-k%02d", r, k)
			mustSet(t, store, sess, key, val, time.Time{})
			last[key] = val
		}
	}
	st := l.Stats()
	if st.DroppedRecords == 0 {
		t.Fatalf("the ring took all %d records: nothing to heal", st.AppendedRecords)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	re := newStore()
	rl, _ := replayInto(t, dir, re)
	defer rl.Close()
	rsess := re.NewSession()
	defer rsess.Close()
	for key, want := range last {
		wantGet(t, re, rsess, key, want)
	}
	t.Logf("%d records appended, %d dropped; all %d keys replayed at their last value", st.AppendedRecords, st.DroppedRecords, len(last))
}
