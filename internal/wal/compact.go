package wal

import (
	"bufio"
	"os"
	"time"
)

// compact rewrites the log to the store's live set, reading the time
// from now. Runs on the writer (so it owns all file state). Protocol:
//
//  1. Write what is staged and seal the active segment N. Reserve sequence
//     N+1 for the snapshot and open a new active segment N+2, so
//     appends racing the dump keep landing — on a file that replays
//     AFTER the snapshot.
//  2. Stream the live set (flush epoch first, then every live entry
//     with its original deadline and store timestamp) into
//     pack-(N+1).log.tmp.
//  3. fsync, atomically rename to pack-(N+1).log, fsync the directory.
//  4. Delete every segment with seq <= N: the snapshot covers them.
//
// Correctness rests on records being absolute post-state: any mutation
// that landed in N+2 before the dump read its key is also reflected in
// the snapshot, and re-applying it on top is convergent, not double
// counting. A crash at any point leaves either the old segments intact
// (before the rename) or the snapshot plus the new tail (after) — both
// replay to the same store. The half-written .tmp of a crashed
// compaction is deleted at Open.
//
// The mark GapOpen reads is taken on entry, so a record dropped during
// the dump marks the log again, and is put back if the rewrite fails:
// the gap stays open for the next Step past the cool-down, or Close.
// A degraded or struggling disk skips the attempt: compaction starts by
// sealing the active segment, and sealing with unflushed pending bytes
// (or a partially-written frame) would freeze a file the retry path
// still needs to complete.
func (l *Log) compact(now func() time.Time) {
	if l.src == nil || l.f == nil || l.degraded() {
		return
	}
	heal := l.needCompact.Swap(false)
	if !l.rewrite(now) && heal {
		l.needCompact.Store(true)
	}
}

// rewrite is compact's protocol; it reports whether the snapshot landed.
// It reads the clock at each write of what producers staged during the
// dump, so those appends are fsynced once FsyncInterval has passed and
// a failed write is retried after its backoff, as between Steps.
func (l *Log) rewrite(now func() time.Time) bool {
	l.flush(now())
	if len(l.pending) > 0 || l.fragRemain > 0 || l.f == nil {
		return false // disk is struggling; retry after recovery
	}
	if err := l.sealActive(); err != nil {
		l.ioFailure(now(), err)
		return false
	}
	snapSeq := l.nextSeq
	l.nextSeq++
	if err := l.openSegment(); err != nil {
		l.ioFailure(now(), err)
		l.opt.Logger.Errorf("wal: compact: open active: %v", err)
		return false
	}

	tmpPath := l.segPath(snapSeq) + ".tmp"
	tmp, err := l.fs.Create(tmpPath, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		l.ioErrors.Add(1)
		l.opt.Logger.Errorf("wal: compact: %v", err)
		return false
	}
	bw := bufio.NewWriterSize(tmp, 1<<20)
	hdr := fileHeader()
	_, _ = bw.Write(hdr[:])

	var records, bytes int64
	var scratch []byte
	write := func(rec []byte) error {
		n, err := bw.Write(rec)
		records++
		bytes += int64(n)
		return err
	}
	fail := func(err error) bool {
		l.ioErrors.Add(1)
		l.opt.Logger.Errorf("wal: compact: %v", err)
		_ = tmp.Close()
		_ = l.fs.Remove(tmpPath)
		return false
	}

	if fa := l.src.FlushEpoch(); !fa.IsZero() {
		scratch = appendFlushRecord(scratch[:0], fa)
		if err := write(scratch); err != nil {
			return fail(err)
		}
	}
	// The dump session leaves idle only for the dump itself; every few
	// hundred entries what producers staged is written to the new active
	// segment so a long dump cannot overflow fill.
	l.srcSess.ExitIdle()
	err = l.src.Dump(l.srcSess, func(key, value []byte, expireAt, storedAt time.Time) error {
		scratch = appendSetRecord(scratch[:0], key, value, expireAt, storedAt)
		if err := write(scratch); err != nil {
			return err
		}
		if records%512 == 0 {
			l.flush(now())
		}
		return nil
	})
	l.srcSess.EnterIdle()
	if err != nil {
		return fail(err)
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		return fail(err)
	}
	if err := l.fs.Rename(tmpPath, l.segPath(snapSeq)); err != nil {
		l.ioErrors.Add(1)
		l.opt.Logger.Errorf("wal: compact: rename: %v", err)
		_ = l.fs.Remove(tmpPath)
		return false
	}
	l.syncDir()

	// Swap the sealed registry: drop everything the snapshot supersedes.
	snapSize := bytes + fileHeaderLen
	l.segMu.Lock()
	var kept []segment
	var keptBytes int64
	for _, sg := range l.sealed {
		if sg.seq < snapSeq {
			_ = l.fs.Remove(sg.path)
			continue
		}
		kept = append(kept, sg)
		keptBytes += sg.size
	}
	l.sealed = append(kept, segment{seq: snapSeq, path: l.segPath(snapSeq), size: snapSize})
	l.segMu.Unlock()
	l.sealedBytes.Store(keptBytes + snapSize)
	l.syncDir()

	l.compactions.Add(1)
	l.snapshotRecords.Store(records)
	l.snapshotBytes.Store(snapSize)
	l.opt.Logger.Infof("wal: compacted to %d records (%d bytes)", records, snapSize)
	return true
}
