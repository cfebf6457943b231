package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"time"
)

// On-disk format. A segment file is a 16-byte file header followed by a
// sequence of framed records:
//
//	file header:  "ALSKPACK" | u32 version | u32 reserved
//	record frame: u16 magic | u8 type | u8 reserved | u32 payloadLen | u32 crc | payload
//
// The CRC is CRC-32C (Castagnoli) over [type, reserved, payloadLen LE,
// payload] — everything after the magic — so a bit flip anywhere in the
// frame body or payload fails verification. All integers are little
// endian. Payload layouts by type:
//
//	set:    i64 expireAt unixnano (0 = never) | i64 storedAt unixnano |
//	        u32 keyLen | key | value
//	delete: key
//	touch:  i64 expireAt unixnano | key
//	flush:  i64 epoch unixnano (flush_all; may be in the future)
//
// Every record is absolute post-state (full value, absolute deadline,
// absolute epoch), never a delta — replaying any suffix of
// already-applied history is convergent, which is what lets compaction
// cut a snapshot concurrently with new appends.
const (
	fileMagic     = "ALSKPACK"
	fileVersion   = 1
	fileHeaderLen = 16

	recMagic     = 0xA15A
	recHeaderLen = 12

	recSet    = 1
	recDelete = 2
	recTouch  = 3
	recFlush  = 4

	// maxPayload bounds a single record (a 1 MiB value plus headroom is
	// typical; this is a sanity cap against corrupt length fields, not a
	// policy limit).
	maxPayload = 256 << 20
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// fileHeader renders the 16-byte segment header.
func fileHeader() [fileHeaderLen]byte {
	var h [fileHeaderLen]byte
	copy(h[:8], fileMagic)
	binary.LittleEndian.PutUint32(h[8:12], fileVersion)
	return h
}

// checkFileHeader validates a segment header.
func checkFileHeader(h []byte) error {
	if len(h) < fileHeaderLen {
		return fmt.Errorf("wal: short file header (%d bytes)", len(h))
	}
	if string(h[:8]) != fileMagic {
		return fmt.Errorf("wal: bad file magic %q", h[:8])
	}
	if v := binary.LittleEndian.Uint32(h[8:12]); v != fileVersion {
		return fmt.Errorf("wal: unsupported version %d", v)
	}
	return nil
}

// frameCRC computes the record CRC over the frame body (type, reserved,
// length) and up to three payload pieces.
func frameCRC(hdr []byte, pieces ...[]byte) uint32 {
	crc := crc32.Update(0, castagnoli, hdr[2:8])
	for _, p := range pieces {
		crc = crc32.Update(crc, castagnoli, p)
	}
	return crc
}

// putFrameHeader fills hdr with a complete 12-byte frame header for a
// record of the given type and payload pieces, returning the total
// framed size.
func putFrameHeader(hdr []byte, typ byte, pieces ...[]byte) int {
	payload := 0
	for _, p := range pieces {
		payload += len(p)
	}
	binary.LittleEndian.PutUint16(hdr[0:2], recMagic)
	hdr[2] = typ
	hdr[3] = 0
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(payload))
	binary.LittleEndian.PutUint32(hdr[8:12], frameCRC(hdr, pieces...))
	return recHeaderLen + payload
}

// appendRecord appends a fully framed record to dst — the encoding used
// by the compactor's snapshot writer and by tests. The request-path
// producer frames the same layout in place with the CRC left zero
// (Log.enqueueLocked) and the writer fills it in (Log.sealPending);
// TestProducerFramingMatchesEncoders holds the two to one layout.
func appendRecord(dst []byte, typ byte, pieces ...[]byte) []byte {
	var hdr [recHeaderLen]byte
	putFrameHeader(hdr[:], typ, pieces...)
	dst = append(dst, hdr[:]...)
	for _, p := range pieces {
		dst = append(dst, p...)
	}
	return dst
}

// nano flattens a deadline to its on-disk representation: 0 for the
// zero time ("never"), UnixNano otherwise.
func nano(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return t.UnixNano()
}

// timeOf is nano's inverse.
func timeOf(n int64) time.Time {
	if n == 0 {
		return time.Time{}
	}
	return time.Unix(0, n)
}

// appendSetRecord frames a set record into dst.
func appendSetRecord(dst []byte, key, value []byte, expireAt, storedAt time.Time) []byte {
	var head [20]byte
	binary.LittleEndian.PutUint64(head[0:8], uint64(nano(expireAt)))
	binary.LittleEndian.PutUint64(head[8:16], uint64(storedAt.UnixNano()))
	binary.LittleEndian.PutUint32(head[16:20], uint32(len(key)))
	return appendRecord(dst, recSet, head[:], key, value)
}

// appendFlushRecord frames a flush-epoch record into dst.
func appendFlushRecord(dst []byte, at time.Time) []byte {
	var head [8]byte
	binary.LittleEndian.PutUint64(head[:], uint64(nano(at)))
	return appendRecord(dst, recFlush, head[:])
}
