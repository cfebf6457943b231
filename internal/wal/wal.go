// Package wal is alaskad's optional persistence layer: an append-only
// "pack log" of CRC-checked records (set/delete/touch/flush-epoch) that
// makes a kill -9 restart warm instead of cold.
//
// The design keeps durability entirely off the request path. A mutating
// operation appends one whole frame, its CRC left zero, to a linear
// staging buffer under a mutex — no allocation, no CRC, no syscall —
// and a dedicated writer goroutine does the rest: it swaps that buffer
// with its own empty one (no copy), fills in each frame's CRC, and
// writes the batch to the active segment. Writing and fsync are
// decoupled: producers wake the writer whenever a write batch has
// filled, while the fsync runs on the timer, once per FsyncInterval
// while there are unsynced bytes. The request path therefore stays at
// exactly 0 allocs/op and never blocks on disk; the price is a bounded
// durability window — a hard kill loses at most the last FsyncInterval
// of appends.
//
// If the staging buffer ever fills (a stalled disk), records are dropped
// and counted rather than blocking the request path; the log is then
// marked for compaction, which rewrites it from the store's
// authoritative live set and restores log/store consistency — at the
// latest in Close.
//
// The writer decides and runs compaction itself, in the same Step that
// writes and fsyncs: at most once per cool-down, when the log is marked
// for it or has grown past CompactFactor times the live set, it seals
// the active segment, streams the live set into a snapshot segment that
// slots between the sealed history and the new active segment,
// atomically renames it into place, and deletes the superseded files.
// Because every record is absolute post-state, replaying the appends
// that raced the snapshot on top of it is convergent.
//
// A background audit pass re-reads sealed segments on a timer and
// verifies every frame's CRC, so silent corruption is surfaced by a
// counter long before the next restart trips over it.
//
// Disk failure is a mode to operate through, not a log line. All file
// I/O goes through an injectable fault.FS, and the writer runs a
// degradation state machine over it: an I/O error RETAINS the staged
// batch in a pending buffer and retries with capped backoff (ENOSPC
// additionally schedules a compaction to free space); after
// DegradeAfter consecutive failures the log transitions
// healthy → degraded — the bad active segment is abandoned at its last
// frame-clean offset, producers stop enqueuing (counted as
// dropped_degraded), and a recovery probe periodically attempts to open
// a fresh segment. When a probe succeeds the log flips back to healthy,
// logs the durability-gap epoch, flushes the retained pending bytes,
// and schedules a compaction so the gap is healed from the store's
// authoritative live set.
package wal

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"alaska/internal/fault"
	"alaska/internal/kv"
	"alaska/internal/logx"
	"alaska/internal/stats"
)

// DefaultFsyncInterval is Options.FsyncInterval's default.
const DefaultFsyncInterval = 100 * time.Millisecond

// Options configures a Log. Zero values take the documented defaults.
type Options struct {
	// Dir is the log directory (alaskad's -data-dir). Created if absent.
	Dir string
	// FsyncInterval is the durability window: the writer fsyncs the
	// active segment once per interval while it holds unsynced bytes,
	// bounding the data-loss window of a hard kill. Writes do not wait
	// for it; they follow the write batch (see RingBytes). Default 100ms.
	FsyncInterval time.Duration
	// RingBytes caps the bytes staged between the request path and the
	// writer. Producers wake the writer each time min(256 KiB,
	// RingBytes/4) has accumulated, so the buffer absorbs one write's
	// latency, not one fsync window; overflow drops records (and forces
	// a compaction) instead of blocking. Default 8 MiB.
	RingBytes int
	// SegmentBytes rotates the active segment past this size. Default 64 MiB.
	SegmentBytes int64
	// AuditInterval is the background CRC-audit period; the first pass
	// runs ~1s after Start. Negative disables the audit. Default 60s.
	AuditInterval time.Duration
	// CompactMinBytes is the log size below which the log's growth alone
	// never triggers a compaction (compacting a tiny log is churn for
	// nothing). Default 8 MiB.
	CompactMinBytes int64
	// CompactFactor triggers compaction when on-disk bytes exceed this
	// multiple of the store's live charged bytes. Default 2.0.
	CompactFactor float64
	// FS is the filesystem the log performs all file operations through.
	// Production leaves it nil (the real OS); tests and the alaskad
	// -fault-script flag install a fault.ScriptFS to exercise the
	// degradation paths. Default fault.OS.
	FS fault.FS
	// DegradeAfter is the sticky-failure budget: this many consecutive
	// failed flush attempts transition the log healthy → degraded.
	// Default 4.
	DegradeAfter int
	// ProbeInterval is how often a degraded log probes the disk by
	// attempting to open a fresh segment. Default 1s.
	ProbeInterval time.Duration
	// Logger receives lifecycle and error output; nil = silent.
	Logger *logx.Logger
}

func (o *Options) withDefaults() Options {
	out := *o
	if out.FsyncInterval <= 0 {
		out.FsyncInterval = DefaultFsyncInterval
	}
	if out.RingBytes == 0 {
		out.RingBytes = 8 << 20
	}
	if out.SegmentBytes == 0 {
		out.SegmentBytes = 64 << 20
	}
	if out.AuditInterval == 0 {
		out.AuditInterval = 60 * time.Second
	}
	if out.CompactMinBytes == 0 {
		out.CompactMinBytes = 8 << 20
	}
	if out.CompactFactor == 0 {
		out.CompactFactor = 2.0
	}
	if out.FS == nil {
		out.FS = fault.OS
	}
	if out.DegradeAfter <= 0 {
		out.DegradeAfter = 4
	}
	if out.ProbeInterval <= 0 {
		out.ProbeInterval = time.Second
	}
	return out
}

// Log states. Producers check the state with a single atomic load, so
// the request path stays allocation- and branch-cheap.
const (
	stateHealthy int32 = iota
	stateDegraded
)

// maxIOBackoff caps the writer's retry backoff so a recovered disk is
// picked up promptly even after a long failure streak.
const maxIOBackoff = 2 * time.Second

// maxWriteBatch caps the fill level at which producers wake the writer.
const maxWriteBatch = 256 << 10

// segment is one immutable (sealed) log file.
type segment struct {
	seq  uint64
	path string
	size int64
}

// Log is an append-only pack log over a directory of segment files.
// Producers (request goroutines, via the kv.MutationLog hooks) append
// frames to fill; one writer goroutine owns all file I/O.
type Log struct {
	opt Options
	fs  fault.FS

	// Producer state, guarded by mu. fill holds whole frames with their
	// CRC left zero, at most RingBytes of them; it and pending are
	// allocated at Open with that capacity and only ever swapped or
	// grown, so the producer path provably never allocates (phead is a
	// field for the same reason). batch is the fill level that wakes the
	// writer.
	mu    sync.Mutex
	fill  []byte
	batch int
	phead [20]byte

	notify     chan struct{}
	quit       chan struct{}
	writerDone chan struct{}
	auditDone  chan struct{}
	closeOnce  sync.Once
	started    bool

	// Writer-goroutine-owned file state. pending holds staged bytes that
	// have not yet landed in the file: it is RETAINED across write/fsync
	// failures and retried, so an I/O error never discards acknowledged
	// records. pending[:crcEnd] already carries its CRCs. cleanSize is
	// the last frame-boundary offset known to be entirely in the file;
	// fragRemain counts the tail bytes of a partially-written frame
	// still waiting at the head of pending. lastSync is when the last
	// timed fsync ran; needSync says bytes were written since.
	// lastCompact is when Step last started a compaction.
	f           fault.File
	seq         uint64
	segSize     int64
	cleanSize   int64
	fragRemain  int
	pending     []byte
	crcEnd      int
	needSync    bool
	lastSync    time.Time
	lastCompact time.Time
	nextSeq     uint64

	// Degradation state machine (writer-owned except the atomics).
	state         atomic.Int32 // stateHealthy | stateDegraded
	degradedSince atomic.Int64 // unixnano; 0 when healthy
	failStreak    int
	backoff       time.Duration
	nextRetry     time.Time
	nextProbe     time.Time

	// Sealed-segment registry, shared between writer (rotate/compact)
	// and the audit pass.
	segMu  sync.Mutex
	sealed []segment

	// Compaction source: the store whose live set is authoritative, and
	// a dedicated session parked in idle state except during dumps.
	src     *kv.ShardedStore
	srcSess kv.Session

	needCompact atomic.Bool

	appendedRecords atomic.Int64
	appendedBytes   atomic.Int64
	droppedRecords  atomic.Int64
	droppedDegraded atomic.Int64
	degradedEntries atomic.Int64
	recoveries      atomic.Int64
	fsyncs          atomic.Int64
	ioErrors        atomic.Int64
	rotations       atomic.Int64
	compactions     atomic.Int64
	snapshotRecords atomic.Int64
	snapshotBytes   atomic.Int64
	activeBytes     atomic.Int64
	sealedBytes     atomic.Int64
	auditRuns       atomic.Int64
	auditRecords    atomic.Int64
	auditErrors     atomic.Int64
	fsyncLat        *stats.LatencyRecorder

	replay ReplayStats // set by Replay, before Start
}

// Open prepares a Log over dir: creates the directory if needed,
// removes stray temp files from an interrupted compaction, and indexes
// the existing segments. No goroutines run and no segment is written
// until Start; call Replay in between to rebuild a store.
func Open(opt Options) (*Log, error) {
	l := &Log{
		opt:        opt.withDefaults(),
		notify:     make(chan struct{}, 1),
		quit:       make(chan struct{}),
		writerDone: make(chan struct{}),
		auditDone:  make(chan struct{}),
		fsyncLat:   stats.NewLatencyRecorder(),
	}
	l.fs = l.opt.FS
	l.fill = make([]byte, 0, l.opt.RingBytes)
	l.pending = make([]byte, 0, l.opt.RingBytes)
	l.batch = min(maxWriteBatch, l.opt.RingBytes/4)
	if err := os.MkdirAll(l.opt.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	names, err := os.ReadDir(l.opt.Dir)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	for _, de := range names {
		name := de.Name()
		full := filepath.Join(l.opt.Dir, name)
		if strings.HasSuffix(name, ".tmp") {
			// An interrupted compaction's half-written snapshot: the old
			// segments it would have replaced are all still present.
			_ = l.fs.Remove(full)
			continue
		}
		seq, ok := parseSegName(name)
		if !ok {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		l.sealed = append(l.sealed, segment{seq: seq, path: full, size: info.Size()})
	}
	sort.Slice(l.sealed, func(i, j int) bool { return l.sealed[i].seq < l.sealed[j].seq })
	l.nextSeq = 1
	if n := len(l.sealed); n > 0 {
		l.nextSeq = l.sealed[n-1].seq + 1
	}
	l.recountSealed()
	return l, nil
}

func segName(seq uint64) string { return fmt.Sprintf("pack-%08d.log", seq) }

func parseSegName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "pack-") || !strings.HasSuffix(name, ".log") {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "pack-"), ".log"), 10, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

func (l *Log) segPath(seq uint64) string { return filepath.Join(l.opt.Dir, segName(seq)) }

// Start opens a fresh active segment after the replayed history and
// launches the writer and audit goroutines. store (may be nil in
// low-level tests) becomes the compaction source; its live set is what
// a compacted log is rewritten to.
func (l *Log) Start(store *kv.ShardedStore) error {
	if err := l.attach(store); err != nil {
		return err
	}
	l.started = true
	go l.writerLoop()
	go l.auditLoop()
	return nil
}

// attach is Start without the goroutines: it makes store the compaction
// source and opens the first active segment.
func (l *Log) attach(store *kv.ShardedStore) error {
	l.src = store
	if store != nil {
		l.srcSess = store.NewSession()
		// Parked idle so a defrag barrier never rendezvouses with a
		// session that only wakes to dump; compact exits idle around the
		// dump itself.
		l.srcSess.EnterIdle()
	}
	if err := l.openSegment(); err != nil {
		return err
	}
	l.lastSync = time.Now()
	return nil
}

// openSegment creates the next active segment with a synced header.
// Writer-goroutine (or pre-Start) only. A failed attempt removes the
// partial file so the sequence number can be retried; if a previous
// failure's cleanup was itself faulted away, the stale file is removed
// and the create retried once rather than hitting EEXIST forever.
func (l *Log) openSegment() error {
	seq := l.nextSeq
	path := l.segPath(seq)
	f, err := l.fs.Create(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil && errors.Is(err, os.ErrExist) {
		_ = l.fs.Remove(path)
		f, err = l.fs.Create(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	}
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	hdr := fileHeader()
	if _, err := f.Write(hdr[:]); err != nil {
		_ = f.Close()
		_ = l.fs.Remove(path)
		return fmt.Errorf("wal: %w", err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		_ = l.fs.Remove(path)
		return fmt.Errorf("wal: %w", err)
	}
	l.syncDir()
	l.nextSeq = seq + 1
	l.f, l.seq, l.segSize = f, seq, fileHeaderLen
	l.cleanSize = l.segSize
	l.fragRemain = 0
	l.needSync = false
	l.activeBytes.Store(l.segSize)
	return nil
}

// syncDir fsyncs the log directory so renames/creates/removes are durable.
func (l *Log) syncDir() {
	d, err := os.Open(l.opt.Dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

func (l *Log) recountSealed() {
	var n int64
	for _, sg := range l.sealed {
		n += sg.size
	}
	l.sealedBytes.Store(n)
}

// Close writes what is staged, fsyncs, and stops the goroutines. If the
// log is marked for compaction — fill dropped records since the last
// snapshot, say, and the healing compaction is still waiting out its
// cool-down — Close runs that compaction first, so after a clean Close on
// a healthy disk a restart replays every acknowledged mutation. (A
// degraded log keeps only what it could write.) Safe to call multiple
// times.
func (l *Log) Close() error {
	l.closeOnce.Do(func() {
		close(l.quit)
		if l.started {
			<-l.writerDone
			<-l.auditDone
		}
		if l.srcSess != nil {
			l.srcSess.ExitIdle()
			_ = l.srcSess.Close()
		}
	})
	return nil
}

// ---- producer side (request path; kv.MutationLog implementation) ----

// LogSet implements kv.MutationLog.
func (l *Log) LogSet(key, value []byte, expireAt, storedAt time.Time) {
	l.mu.Lock()
	putU64(l.phead[0:8], uint64(nano(expireAt)))
	putU64(l.phead[8:16], uint64(storedAt.UnixNano()))
	putU32(l.phead[16:20], uint32(len(key)))
	wake := l.enqueueLocked(recSet, l.phead[:20], key, value)
	l.mu.Unlock()
	if wake {
		l.wake()
	}
}

// LogDelete implements kv.MutationLog.
func (l *Log) LogDelete(key []byte) {
	l.mu.Lock()
	wake := l.enqueueLocked(recDelete, key, nil, nil)
	l.mu.Unlock()
	if wake {
		l.wake()
	}
}

// LogTouch implements kv.MutationLog.
func (l *Log) LogTouch(key []byte, expireAt time.Time) {
	l.mu.Lock()
	putU64(l.phead[0:8], uint64(nano(expireAt)))
	wake := l.enqueueLocked(recTouch, l.phead[:8], key, nil)
	l.mu.Unlock()
	if wake {
		l.wake()
	}
}

// LogFlushAll implements kv.MutationLog.
func (l *Log) LogFlushAll(at time.Time) {
	l.mu.Lock()
	putU64(l.phead[0:8], uint64(nano(at)))
	wake := l.enqueueLocked(recFlush, l.phead[:8], nil, nil)
	l.mu.Unlock()
	if wake {
		l.wake()
	}
}

// enqueueLocked appends one whole frame to fill, its CRC left zero for
// the writer to fill in, and reports whether fill just reached the
// write batch (the caller then wakes the writer, after unlocking).
// Caller holds l.mu. On overflow the record is dropped, counted, and
// the log marked for compaction — the request path never blocks on the
// disk. In degraded mode records are dropped up front (and counted
// separately): the disk is refusing writes, so buffering would only
// defer the loss past the operator's visibility.
func (l *Log) enqueueLocked(typ byte, a, b, c []byte) bool {
	if l.state.Load() != stateHealthy {
		l.droppedDegraded.Add(1)
		return false
	}
	payload := len(a) + len(b) + len(c)
	total := recHeaderLen + payload
	n := len(l.fill)
	if n+total > l.opt.RingBytes || payload > maxPayload {
		l.droppedRecords.Add(1)
		l.needCompact.Store(true)
		return false
	}
	f := l.fill[:n+recHeaderLen]
	h := f[n:]
	putU16(h[0:2], recMagic)
	h[2], h[3] = typ, 0
	putU32(h[4:8], uint32(payload))
	putU32(h[8:12], 0)
	l.fill = append(append(append(f, a...), b...), c...)
	l.appendedRecords.Add(1)
	l.appendedBytes.Add(int64(total))
	return n < l.batch && len(l.fill) >= l.batch
}

func (l *Log) wake() {
	select {
	case l.notify <- struct{}{}:
	default:
	}
}

func putU16(b []byte, v uint16) { b[0] = byte(v); b[1] = byte(v >> 8) }
func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
}
func putU64(b []byte, v uint64) {
	putU32(b[0:4], uint32(v))
	putU32(b[4:8], uint32(v>>32))
}

func leU32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// ---- writer side ----

// writerLoop runs Step when producers have filled a write batch or the
// next fsync falls due. The timer aims at FsyncInterval after the last
// fsync (a timer never fires early, so that Step finds the fsync due),
// or a whole interval ahead once that moment has passed with nothing to
// sync.
func (l *Log) writerLoop() {
	defer close(l.writerDone)
	timer := time.NewTimer(l.opt.FsyncInterval)
	defer timer.Stop()
	for {
		select {
		case <-l.quit:
			if !l.degraded() {
				l.nextRetry = time.Time{} // final flush is best-effort, no backoff gate
				// A record fill dropped is on no disk: heal from the
				// store's live set now, cool-down or not.
				if l.needCompact.Load() {
					l.compact(time.Now)
				}
				l.flush(time.Now())
			}
			if n := len(l.pending); n > 0 {
				l.opt.Logger.Errorf("wal: closing with %d buffered bytes unpersisted", n)
			}
			if l.f != nil {
				if err := l.f.Sync(); err != nil {
					l.ioErrors.Add(1)
					l.opt.Logger.Errorf("wal: close sync: %v", err)
				}
				_ = l.f.Close()
				l.f = nil
			}
			return
		case <-timer.C:
		case <-l.notify:
		}
		l.Step(time.Now)
		next := time.Until(l.lastSync.Add(l.opt.FsyncInterval))
		if next <= 0 {
			next = l.opt.FsyncInterval
		}
		timer.Reset(next)
	}
}

// compactCooldown spaces compactions out: a snapshot of a large store
// is real work, and the growth ratio stays high until the snapshot
// lands.
const compactCooldown = 5 * time.Second

// Step is one writer wakeup on clock now (the writer passes time.Now).
// Healthy, it writes what is staged, fsyncs if FsyncInterval has passed
// since the last fsync, rotates a full segment, and — at most once per
// compactCooldown — compacts a log that is marked for it or has
// outgrown the live set, reading now again as the dump goes; degraded,
// it stages the pre-degradation residue and probes the disk. Once Start
// has run, the writer goroutine is its only caller.
func (l *Log) Step(now func() time.Time) {
	t := now()
	if l.degraded() {
		l.stage()
		l.maybeProbe(t)
		return
	}
	l.flush(t)
	if l.f != nil && len(l.pending) == 0 && l.fragRemain == 0 && l.segSize >= l.opt.SegmentBytes {
		l.rotate(t)
	}
	if t.Sub(l.lastCompact) >= compactCooldown && l.compactDue() {
		l.lastCompact = t
		l.compact(now)
	}
}

// compactDue reports whether the log is marked for a compaction (see
// GapOpen) or is past CompactMinBytes and CompactFactor times the
// store's live charged bytes.
func (l *Log) compactDue() bool {
	if l.src == nil {
		return false
	}
	if l.needCompact.Load() {
		return true
	}
	disk := l.activeBytes.Load() + l.sealedBytes.Load()
	return disk > l.opt.CompactMinBytes && float64(disk) > l.opt.CompactFactor*float64(l.src.Bytes())
}

// stage moves what producers appended into pending: an O(1) swap of
// the two buffers once the last batch has landed, a copy only behind a
// batch the disk has not taken yet. pending is soft-capped at one
// RingBytes: past that the bytes stay in fill, whose own overflow
// accounting (drop + compact) then applies.
func (l *Log) stage() {
	l.mu.Lock()
	switch {
	case len(l.pending) == 0:
		l.fill, l.pending = l.pending, l.fill
	case len(l.pending) < l.opt.RingBytes:
		l.pending = append(l.pending, l.fill...)
		l.fill = l.fill[:0]
	}
	l.mu.Unlock()
}

// sealPending fills in the CRC of every frame staged since the last
// call; pending[crcEnd:] starts at a frame boundary and holds whole
// frames.
func (l *Log) sealPending() {
	b := l.pending
	for off := l.crcEnd; off < len(b); {
		end := off + recHeaderLen + int(leU32(b[off+4:off+8]))
		putU32(b[off+8:off+12], frameCRC(b[off:], b[off+recHeaderLen:end]))
		off = end
	}
	l.crcEnd = len(b)
}

// retryDue reports whether the failure backoff window has passed.
func (l *Log) retryDue(now time.Time) bool {
	return l.nextRetry.IsZero() || !now.Before(l.nextRetry)
}

// flush stages what producers appended, seals its CRCs and writes all
// of pending to the active segment, then fsyncs if FsyncInterval has
// passed since the last fsync. On failure pending is RETAINED and
// retried after a capped backoff; only bytes actually accepted by the
// file advance the segment size, and the fsync counter moves only on a
// successful sync. Repeated failures trip the degradation machine.
func (l *Log) flush(now time.Time) {
	l.stage()
	if l.f != nil && len(l.pending) == 0 && !l.needSync {
		return
	}
	if !l.retryDue(now) {
		return
	}
	if l.f == nil {
		// A failed rotate left no active segment; reopen rather than
		// discard — even with nothing staged, so the failure streak keeps
		// counting toward degradation instead of stalling at one.
		if err := l.openSegment(); err != nil {
			l.ioFailure(now, fmt.Errorf("reopen segment: %w", err))
			return
		}
	}
	l.sealPending()
	for len(l.pending) > 0 {
		n, err := l.f.Write(l.pending)
		if n > 0 {
			l.consumeWritten(n)
			l.needSync = true
		}
		if err != nil {
			l.ioFailure(now, fmt.Errorf("append: %w", err))
			return
		}
	}
	if l.needSync && now.Sub(l.lastSync) >= l.opt.FsyncInterval {
		t0 := time.Now()
		if err := l.f.Sync(); err != nil {
			l.ioFailure(now, fmt.Errorf("fsync: %w", err))
			return
		}
		l.fsyncLat.Record(time.Since(t0))
		l.fsyncs.Add(1)
		l.needSync = false
		l.lastSync = now
	}
	l.ioSuccess()
}

// consumeWritten advances pending and the frame-alignment cursors past
// n bytes the file accepted. A short write can cut a frame; the cut
// frame's tail stays at the head of pending (a retry into the same file
// completes it), and cleanSize tracks the last whole-frame offset so an
// abandoned segment can be truncated to a frame-clean prefix.
func (l *Log) consumeWritten(n int) {
	off := 0
	if l.fragRemain > 0 {
		k := min(n, l.fragRemain)
		l.fragRemain -= k
		l.segSize += int64(k)
		if l.fragRemain == 0 {
			l.cleanSize = l.segSize
		}
		off = k
	}
	if rem := n - off; rem > 0 {
		b := frameAlignedPrefix(l.pending[off:], rem)
		l.segSize += int64(rem)
		l.cleanSize += int64(b)
		if b < rem {
			frameLen := recHeaderLen + int(leU32(l.pending[off+b+4:off+b+8]))
			l.fragRemain = frameLen - (rem - b)
		}
	}
	l.pending = l.pending[:copy(l.pending, l.pending[n:])]
	l.crcEnd -= n
	l.activeBytes.Store(l.segSize)
}

// frameAlignedPrefix returns the largest frame-boundary offset <= n in
// b, which must itself start at a frame boundary.
func frameAlignedPrefix(b []byte, n int) int {
	off := 0
	for off < n {
		frameLen := recHeaderLen + int(leU32(b[off+4:off+8]))
		if off+frameLen > n {
			break
		}
		off += frameLen
	}
	return off
}

// ioFailure records one failed flush attempt: count it, back off
// (capped), flag compaction on ENOSPC so space is reclaimed from the
// live set, and degrade once the consecutive-failure budget is spent.
func (l *Log) ioFailure(now time.Time, err error) {
	l.ioErrors.Add(1)
	l.failStreak++
	if errors.Is(err, syscall.ENOSPC) {
		l.needCompact.Store(true)
	}
	if l.backoff == 0 {
		l.backoff = l.opt.FsyncInterval
	} else {
		l.backoff *= 2
	}
	if l.backoff > maxIOBackoff {
		l.backoff = maxIOBackoff
	}
	l.nextRetry = now.Add(l.backoff)
	l.opt.Logger.Errorf("wal: %v (failure %d/%d, retry in %v)", err, l.failStreak, l.opt.DegradeAfter, l.backoff)
	if l.failStreak >= l.opt.DegradeAfter && !l.degraded() {
		l.enterDegraded(now, err)
	}
}

// ioSuccess resets the failure machine after a fully-flushed batch.
func (l *Log) ioSuccess() {
	l.failStreak = 0
	l.backoff = 0
	l.nextRetry = time.Time{}
}

// enterDegraded flips the log into degraded mode: producers stop
// enqueuing (dropped_degraded counts what the cache keeps serving but
// the log no longer covers), the failing active segment is abandoned at
// its last frame-clean offset, and the recovery probe takes over.
func (l *Log) enterDegraded(now time.Time, cause error) {
	l.state.Store(stateDegraded)
	l.degradedSince.Store(now.UnixNano())
	l.degradedEntries.Add(1)
	l.nextProbe = now.Add(l.opt.ProbeInterval)
	l.abandonActive()
	l.opt.Logger.Errorf("wal: DEGRADED after %d consecutive I/O failures (%v); new appends are not persisted until recovery", l.failStreak, cause)
}

// abandonActive gives up on the active segment: best-effort close,
// truncate to the last frame-clean offset, and register the surviving
// prefix as sealed so replay and audit still use it. The registered
// bytes may not all be fsync-durable — the post-recovery compaction
// rewrites the log from the live store and retires this segment. A
// partially-written frame loses its head to the truncate, so its tail
// is dropped from pending and counted.
func (l *Log) abandonActive() {
	if l.f == nil {
		return
	}
	_ = l.f.Close()
	l.f = nil
	if l.fragRemain > 0 {
		l.pending = l.pending[:copy(l.pending, l.pending[l.fragRemain:])]
		l.crcEnd -= l.fragRemain
		l.fragRemain = 0
		l.droppedRecords.Add(1)
	}
	path := l.segPath(l.seq)
	if l.cleanSize <= fileHeaderLen {
		_ = l.fs.Remove(path)
	} else {
		if l.cleanSize < l.segSize {
			_ = l.fs.Truncate(path, l.cleanSize)
		}
		l.segMu.Lock()
		l.sealed = append(l.sealed, segment{seq: l.seq, path: path, size: l.cleanSize})
		l.segMu.Unlock()
		l.sealedBytes.Add(l.cleanSize)
	}
	l.segSize, l.cleanSize = 0, 0
	l.activeBytes.Store(0)
}

// maybeProbe attempts recovery from degraded mode: open a fresh
// segment; if the disk accepts it (create + header write + fsync), flip
// back to healthy, log the durability gap, flush the retained pending
// bytes, and schedule a compaction to close the gap from the store's
// authoritative live set.
func (l *Log) maybeProbe(now time.Time) {
	if now.Before(l.nextProbe) {
		return
	}
	l.nextProbe = now.Add(l.opt.ProbeInterval)
	if err := l.openSegment(); err != nil {
		l.ioErrors.Add(1)
		l.opt.Logger.Errorf("wal: recovery probe: %v", err)
		return
	}
	gapStart := time.Unix(0, l.degradedSince.Load())
	l.state.Store(stateHealthy)
	l.degradedSince.Store(0)
	l.recoveries.Add(1)
	l.ioSuccess()
	l.needCompact.Store(true)
	l.opt.Logger.Errorf("wal: recovered to healthy; durability gap %s → %s (%v); compaction scheduled to close it",
		gapStart.Format(time.RFC3339Nano), now.Format(time.RFC3339Nano), now.Sub(gapStart))
	l.flush(now)
}

// rotate seals the active segment and opens the next. Writer only. A
// seal or open failure keeps the current state for retry and feeds the
// failure machine — it never leaves batches silently discarded.
func (l *Log) rotate(now time.Time) {
	if l.f == nil {
		return
	}
	if err := l.sealActive(); err != nil {
		l.ioFailure(now, err)
		return
	}
	l.rotations.Add(1)
	if err := l.openSegment(); err != nil {
		l.ioFailure(now, fmt.Errorf("rotate: %w", err))
	}
}

// sealActive syncs, closes, and registers the active segment as sealed.
// A Sync failure is propagated WITHOUT sealing: the segment may hold
// un-durable bytes, and registering it would hand audit and replay a
// file known to be suspect — it stays active and the seal is retried. A
// Close failure after a successful Sync cannot lose data (every byte is
// already durable), so it is counted and the seal proceeds.
func (l *Log) sealActive() error {
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("seal sync: %w", err)
	}
	if err := l.f.Close(); err != nil {
		l.ioErrors.Add(1)
		l.opt.Logger.Errorf("wal: seal close: %v", err)
	}
	l.segMu.Lock()
	l.sealed = append(l.sealed, segment{seq: l.seq, path: l.segPath(l.seq), size: l.segSize})
	l.segMu.Unlock()
	l.sealedBytes.Add(l.segSize)
	l.f = nil
	l.activeBytes.Store(0)
	return nil
}

// ---- state accessors ----

func (l *Log) degraded() bool { return l.state.Load() == stateDegraded }

// Degraded reports whether the log is in degraded mode: the disk is
// refusing writes and new mutations are not being persisted.
func (l *Log) Degraded() bool { return l.degraded() }

// GapOpen reports whether the log is marked for the compaction that
// rewrites it from the store's live set and no compaction is under way:
// records were dropped on overflow or while degraded, replay found
// corrupt history, or the disk filled. A compaction that fails marks
// the log again.
func (l *Log) GapOpen() bool { return l.needCompact.Load() }

// StateString returns "healthy" or "degraded" for the stats surface.
func (l *Log) StateString() string {
	if l.degraded() {
		return "degraded"
	}
	return "healthy"
}

// DegradedSince returns when the log entered degraded mode, or the zero
// time when healthy.
func (l *Log) DegradedSince() time.Time {
	n := l.degradedSince.Load()
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n)
}

// ---- stats ----

// ReplayStats describes what a boot-time Replay found.
type ReplayStats struct {
	Segments    int   // segment files scanned
	Records     int64 // valid records applied (or skipped as dead)
	Bytes       int64 // valid record bytes
	Sets        int64
	Deletes     int64
	Touches     int64
	Flushes     int64
	SkippedDead int64 // set records already past deadline/flush epoch (applied all the same; see Replay)
	// TornRecords counts records cut short by EOF in the final segment
	// (the torn tail of a hard kill); CrcErrors counts complete frames
	// that failed CRC or frame validation — corruption, not a tear.
	TornRecords    int64
	CrcErrors      int64
	TruncatedBytes int64 // bytes truncated off the final segment's tail
	FailedRestores int64 // records that did not re-insert (e.g. over ceiling)
	// Items is the store's live item count once replay ends; Elapsed is
	// the replay's wall time.
	Items   int
	Elapsed time.Duration
}

// Stats is a point-in-time counter snapshot for the stats/metrics surfaces.
type Stats struct {
	AppendedRecords int64
	AppendedBytes   int64
	DroppedRecords  int64
	DroppedDegraded int64
	DegradedEntries int64
	Recoveries      int64
	Fsyncs          int64
	IOErrors        int64
	Rotations       int64
	Compactions     int64
	SnapshotRecords int64
	SnapshotBytes   int64
	Segments        int
	DiskBytes       int64
	AuditRuns       int64
	AuditRecords    int64
	AuditErrors     int64
	State           string
	Replay          ReplayStats
}

// Stats returns the current counters.
func (l *Log) Stats() Stats {
	l.segMu.Lock()
	segs := len(l.sealed)
	l.segMu.Unlock()
	if l.activeBytes.Load() > 0 {
		segs++
	}
	return Stats{
		AppendedRecords: l.appendedRecords.Load(),
		AppendedBytes:   l.appendedBytes.Load(),
		DroppedRecords:  l.droppedRecords.Load(),
		DroppedDegraded: l.droppedDegraded.Load(),
		DegradedEntries: l.degradedEntries.Load(),
		Recoveries:      l.recoveries.Load(),
		Fsyncs:          l.fsyncs.Load(),
		IOErrors:        l.ioErrors.Load(),
		Rotations:       l.rotations.Load(),
		Compactions:     l.compactions.Load(),
		SnapshotRecords: l.snapshotRecords.Load(),
		SnapshotBytes:   l.snapshotBytes.Load(),
		Segments:        segs,
		DiskBytes:       l.activeBytes.Load() + l.sealedBytes.Load(),
		AuditRuns:       l.auditRuns.Load(),
		AuditRecords:    l.auditRecords.Load(),
		AuditErrors:     l.auditErrors.Load(),
		State:           l.StateString(),
		Replay:          l.replay,
	}
}

// FsyncLatency exposes the fsync-duration recorder for /metrics.
func (l *Log) FsyncLatency() *stats.LatencyRecorder { return l.fsyncLat }
