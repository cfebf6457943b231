// Package server implements alaskad: a network-facing memcached-protocol
// server over the Alaska heap. It speaks the memcached ASCII protocol
// (get/gets/gat/gats, set/add/replace/cas/append/prepend, incr/decr,
// delete/touch, stats/version/quit) on TCP, runs each connection on a
// worker goroutine that owns an rt.Thread-backed kv.Session, and — on the
// Anchorage backend — defragments the heap under live traffic: a
// background maintenance goroutine steps the §4.3 controller, whose every
// pass is the §7 pause-free ConcurrentDefragPass, while connections keep
// serving requests between safepoint polls. The server never stops the
// world.
package server

// Shared protocol constants, response lines, deadline normalization and
// the stored value codec. Command lines are parsed in parse.go.

import (
	"encoding/binary"
	"fmt"
	"time"
)

// Protocol response lines (memcached ASCII, without the CRLF).
const (
	respStored      = "STORED"
	respNotStored   = "NOT_STORED"
	respExists      = "EXISTS"
	respDeleted     = "DELETED"
	respNotFound    = "NOT_FOUND"
	respTouched     = "TOUCHED"
	respEnd         = "END"
	respOK          = "OK"
	respReset       = "RESET"
	respError       = "ERROR"
	respBadFormat   = "CLIENT_ERROR bad command line format"
	respLineTooLong = "CLIENT_ERROR line too long"
	respBadChunk    = "CLIENT_ERROR bad data chunk"
	respNonNumeric  = "CLIENT_ERROR cannot increment or decrement non-numeric value"
	respBadDelta    = "CLIENT_ERROR invalid numeric delta argument"
	respTooLarge    = "SERVER_ERROR object too large for cache"
	respOutOfMemory = "SERVER_ERROR out of memory storing object"
)

const (
	crlf      = "\r\n"
	maxKeyLen = 250
	// valueHeaderLen is the per-value metadata the server prepends to the
	// stored bytes: flags (uint32) and the cas unique (uint64). Keeping
	// the metadata inside the stored value keeps the kv layer generic and
	// makes flags+cas+data one atomic unit under the shard lock.
	valueHeaderLen = 12
	// maxRelativeExptime is memcached's 30-day threshold: wire exptimes
	// up to it are relative seconds-from-now; anything larger is an
	// absolute unix timestamp.
	maxRelativeExptime = 60 * 60 * 24 * 30
	// maxNumericLen is the longest decimal a uint64 can need (20
	// digits); anything longer after zero-stripping overflows, which
	// memcached's strtoull reports as non-numeric (ERANGE).
	maxNumericLen = 20
)

// errBadLine marks a malformed command line (CLIENT_ERROR bad command
// line format); errBadDelta marks an incr/decr delta that is not a
// 64-bit unsigned decimal (a distinct CLIENT_ERROR in memcached).
var (
	errBadLine  = fmt.Errorf("bad command line format")
	errBadDelta = fmt.Errorf("invalid numeric delta argument")
)

// deadlineFor converts a wire exptime into an absolute deadline under
// memcached's rules: 0 never expires; a negative value is immediately
// expired; values up to 30 days are seconds relative to now; anything
// larger is an absolute unix timestamp (which may itself be in the past).
func deadlineFor(exptime int64, now time.Time) time.Time {
	switch {
	case exptime == 0:
		return time.Time{}
	case exptime < 0:
		// Any deadline at-or-before now reads as already expired; using
		// now itself keeps this exact under a frozen test clock.
		return now
	case exptime <= maxRelativeExptime:
		return now.Add(time.Duration(exptime) * time.Second)
	default:
		return time.Unix(exptime, 0)
	}
}

// decodeValue splits a stored representation back into flags, cas, data.
func decodeValue(stored []byte) (flags uint32, cas uint64, data []byte, err error) {
	if len(stored) < valueHeaderLen {
		return 0, 0, nil, fmt.Errorf("server: stored value shorter than header (%d bytes)", len(stored))
	}
	return binary.BigEndian.Uint32(stored[0:4]),
		binary.BigEndian.Uint64(stored[4:12]),
		stored[valueHeaderLen:], nil
}
