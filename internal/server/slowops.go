package server

import (
	"sync"
	"sync/atomic"
	"time"
)

// The slow-op ring is alaskad's flight recorder: every command slower
// than Config.SlowOpThreshold is recorded into a fixed, preallocated
// ring so "what was slow just now?" is answerable after the fact —
// `stats slow` on the wire, /debug/slowops on the admin port — without
// keeping a log or allocating on the request path.
//
// The record path is allocation-free: a slot is claimed with one atomic
// add on the cursor, and the entry is filled under its own mutex, so
// writers only ever meet a reader (or a writer a whole lap ahead) on
// the one entry both want. Only commands already over the threshold
// come here, so an uncontended lock is noise. The key is truncated
// into a fixed array — the ring never references request memory.

const (
	// slowRingSize is the ring capacity; a power of two so the cursor
	// wraps with a mask.
	slowRingSize = 256
	// slowOpKeyLen is the recorded key prefix. 32 bytes is enough to
	// identify a key family; full keys would bloat the entries for the
	// rare 250-byte tail.
	slowOpKeyLen = 32
)

// slowEntry is one recorded operation; mu guards every field.
type slowEntry struct {
	mu       sync.Mutex
	whenNs   int64 // wall clock, unixnano
	latNs    int64
	connID   uint64
	cmd      cmdCode
	keyLen   uint8
	key      [slowOpKeyLen]byte
	truncKey bool // key was longer than the recorded prefix
}

// slowRing is the fixed-size ring.
type slowRing struct {
	cur     atomic.Uint64 // total records ever; next slot is cur & mask
	entries [slowRingSize]slowEntry
}

func newSlowRing() *slowRing { return &slowRing{} }

// record claims the next slot and fills it. Allocation-free; safe from
// any number of goroutines. An op recorded while slowRingSize newer ops
// arrive is overwritten — the ring keeps the newest window, which is
// the one an operator debugging a latency spike wants.
func (r *slowRing) record(cmd cmdCode, key []byte, lat time.Duration, connID uint64, now time.Time) {
	e := &r.entries[r.cur.Add(1)&(slowRingSize-1)]
	e.mu.Lock()
	e.whenNs = now.UnixNano()
	e.latNs = lat.Nanoseconds()
	e.connID = connID
	e.cmd = cmd
	e.keyLen = uint8(copy(e.key[:], key))
	e.truncKey = len(key) > slowOpKeyLen
	e.mu.Unlock()
}

// SlowOp is one captured slow operation, decoded for the reporting
// surfaces.
type SlowOp struct {
	Cmd     string        `json:"cmd"`
	Key     string        `json:"key"` // recorded prefix; "..." appended if truncated
	Latency time.Duration `json:"latency_ns"`
	ConnID  uint64        `json:"conn"`
	When    time.Time     `json:"when"`
}

// snapshot copies the entries out, newest first. Reporting path only —
// it allocates freely. A slot claimed but not yet filled reads as its
// previous occupant (or is skipped if it never had one).
func (r *slowRing) snapshot() []SlowOp {
	out := make([]SlowOp, 0, slowRingSize)
	cur := r.cur.Load()
	n := cur
	if n > slowRingSize {
		n = slowRingSize
	}
	for i := uint64(0); i < n; i++ {
		e := &r.entries[(cur-i)&(slowRingSize-1)]
		e.mu.Lock()
		op := SlowOp{
			Cmd:     cmdNames[e.cmd],
			Latency: time.Duration(e.latNs),
			ConnID:  e.connID,
			When:    time.Unix(0, e.whenNs),
		}
		key := string(e.key[:e.keyLen])
		if e.truncKey {
			key += "..."
		}
		op.Key = key
		filled := e.whenNs != 0
		e.mu.Unlock()
		if filled {
			out = append(out, op)
		}
	}
	return out
}
