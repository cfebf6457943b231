package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"time"

	"alaska/internal/kv"
)

// scanVerdict classifies how a segment scan ended.
type scanVerdict int

const (
	scanClean scanVerdict = iota // EOF exactly at a record boundary
	scanTorn                     // bytes ran out mid-record (torn tail)
	scanCorrupt                  // a complete frame failed validation
)

// scanSegment reads one segment file, invoking apply for every valid
// record in order, and reports where the valid prefix ends. apply may
// be nil (audit mode: CRC verification only). The payload slice passed
// to apply is reused between records.
func scanSegment(path string, apply func(typ byte, payload []byte) error) (records int64, goodEnd int64, size int64, verdict scanVerdict, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, 0, scanClean, err
	}
	defer f.Close()
	info, err := f.Stat()
	if err != nil {
		return 0, 0, 0, scanClean, err
	}
	size = info.Size()

	r := bufio.NewReaderSize(f, 1<<20)
	var fh [fileHeaderLen]byte
	if _, err := io.ReadFull(r, fh[:]); err != nil {
		return 0, 0, size, scanTorn, nil
	}
	if err := checkFileHeader(fh[:]); err != nil {
		return 0, 0, size, scanCorrupt, nil
	}
	goodEnd = fileHeaderLen

	var hdr [recHeaderLen]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(r, hdr[:1]); err != nil {
			return records, goodEnd, size, scanClean, nil // clean EOF at boundary
		}
		if _, err := io.ReadFull(r, hdr[1:]); err != nil {
			return records, goodEnd, size, scanTorn, nil
		}
		if binary.LittleEndian.Uint16(hdr[0:2]) != recMagic {
			return records, goodEnd, size, scanCorrupt, nil
		}
		typ := hdr[2]
		if typ < recSet || typ > recFlush {
			return records, goodEnd, size, scanCorrupt, nil
		}
		plen := int64(binary.LittleEndian.Uint32(hdr[4:8]))
		if plen > maxPayload || goodEnd+recHeaderLen+plen > size {
			// A corrupt length field is indistinguishable from a tear that
			// truncated the length itself; classify by whether the frame
			// claims more bytes than the file holds.
			if goodEnd+recHeaderLen+plen > size {
				return records, goodEnd, size, scanTorn, nil
			}
			return records, goodEnd, size, scanCorrupt, nil
		}
		if int64(cap(payload)) < plen {
			payload = make([]byte, plen, 2*plen)
		}
		payload = payload[:plen]
		if _, err := io.ReadFull(r, payload); err != nil {
			return records, goodEnd, size, scanTorn, nil
		}
		crc := crc32.Update(0, castagnoli, hdr[2:8])
		crc = crc32.Update(crc, castagnoli, payload)
		if crc != binary.LittleEndian.Uint32(hdr[8:12]) {
			return records, goodEnd, size, scanCorrupt, nil
		}
		if apply != nil {
			if err := apply(typ, payload); err != nil {
				return records, goodEnd, size, scanClean, err
			}
		}
		records++
		goodEnd += recHeaderLen + plen
	}
}

// Replay rebuilds store from the log's segments, in sequence order,
// through the kv restore entry points — original store timestamps and
// the flush_all epoch included, so TTL and flush semantics are exact
// across the restart. A set record dead at replay time is applied all the
// same — it replaced whatever its key held, and a later touch may have
// extended it — and one closing sweep reclaims what stayed dead.
//
// Recovery policy: a torn tail on the FINAL segment (the expected
// residue of a hard kill) is truncated off, so the file ends at the
// last valid record and the next audit pass sees a clean log. A bad
// record anywhere else is corruption: replay stops at the last valid
// record — never applying a record that failed its CRC — and marks the
// log for compaction, which rewrites it from the recovered live set.
//
// Call between Open and Start. The returned error is for I/O-level
// failures only (unreadable directory); corruption is reported in
// ReplayStats, not as an error — a warm restart is best-effort.
func (l *Log) Replay(store *kv.ShardedStore, sess kv.Session) (ReplayStats, error) {
	var rs ReplayStats
	start := time.Now()
	clock := store.Clock
	if clock == nil {
		clock = time.Now
	}
	nowN := clock().UnixNano()
	var faNano int64 // running flush epoch, from flush records

	apply := func(typ byte, payload []byte) error {
		switch typ {
		case recSet:
			if len(payload) < 20 {
				return errors.New("short set payload")
			}
			expN := int64(binary.LittleEndian.Uint64(payload[0:8]))
			storedN := int64(binary.LittleEndian.Uint64(payload[8:16]))
			keyLen := int64(binary.LittleEndian.Uint32(payload[16:20]))
			if keyLen < 0 || 20+keyLen > int64(len(payload)) {
				return errors.New("bad set key length")
			}
			key := payload[20 : 20+keyLen]
			value := payload[20+keyLen:]
			rs.Sets++
			if (expN != 0 && expN <= nowN) || (faNano != 0 && nowN >= faNano && storedN < faNano) {
				rs.SkippedDead++
			}
			if err := store.RestoreBytes(sess, key, value, timeOf(expN), timeOf(storedN)); err != nil {
				rs.FailedRestores++
			}
		case recDelete:
			rs.Deletes++
			store.RestoreDeleteBytes(payload)
		case recTouch:
			if len(payload) < 8 {
				return errors.New("short touch payload")
			}
			rs.Touches++
			store.RestoreTouchBytes(payload[8:], timeOf(int64(binary.LittleEndian.Uint64(payload[0:8]))))
		case recFlush:
			if len(payload) < 8 {
				return errors.New("short flush payload")
			}
			rs.Flushes++
			faNano = int64(binary.LittleEndian.Uint64(payload[0:8]))
			store.RestoreFlushEpoch(timeOf(faNano))
		}
		return nil
	}

	l.segMu.Lock()
	segs := append([]segment(nil), l.sealed...)
	l.segMu.Unlock()

	for i := range segs {
		sg := &segs[i]
		last := i == len(segs)-1
		records, goodEnd, size, verdict, err := scanSegment(sg.path, apply)
		if err != nil {
			return rs, fmt.Errorf("wal: replay %s: %w", sg.path, err)
		}
		rs.Segments++
		rs.Records += records
		rs.Bytes += goodEnd
		switch verdict {
		case scanClean:
		case scanTorn:
			rs.TornRecords++
		case scanCorrupt:
			rs.CrcErrors++
		}
		if verdict == scanClean {
			continue
		}
		if last {
			// The expected residue of a hard kill: cut the tail at the
			// last valid record so the segment is clean for the audit. A
			// file whose header itself is unreadable is removed outright.
			rs.TruncatedBytes += size - goodEnd
			if goodEnd < fileHeaderLen {
				_ = l.fs.Remove(sg.path)
				l.dropSealed(sg.seq)
			} else if goodEnd < size {
				if terr := l.fs.Truncate(sg.path, goodEnd); terr == nil {
					l.resizeSealed(sg.seq, goodEnd)
				}
			}
		} else {
			// Corruption inside sealed history: everything after it is of
			// unknown provenance. Stop — the recovered prefix is
			// consistent — and let compaction rewrite the log from it.
			l.opt.Logger.Errorf("wal: replay: %s corrupt at offset %d; recovering prefix and scheduling compaction", sg.path, goodEnd)
			l.needCompact.Store(true)
			break
		}
	}
	store.SweepExpired(math.MaxInt)
	rs.Items, rs.Elapsed = store.Len(), time.Since(start)
	l.replay = rs
	return rs, nil
}

func (l *Log) dropSealed(seq uint64) {
	l.segMu.Lock()
	defer l.segMu.Unlock()
	var n int64
	for i := 0; i < len(l.sealed); i++ {
		if l.sealed[i].seq == seq {
			l.sealed = append(l.sealed[:i], l.sealed[i+1:]...)
			i--
			continue
		}
		n += l.sealed[i].size
	}
	l.sealedBytes.Store(n)
}

func (l *Log) resizeSealed(seq uint64, size int64) {
	l.segMu.Lock()
	defer l.segMu.Unlock()
	var n int64
	for i := range l.sealed {
		if l.sealed[i].seq == seq {
			l.sealed[i].size = size
		}
		n += l.sealed[i].size
	}
	l.sealedBytes.Store(n)
}
