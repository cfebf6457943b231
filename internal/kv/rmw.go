package kv

import "time"

// This file defines ShardedStore's read-modify-write primitive.
// Memcached's cas/incr/decr/append/prepend commands all read a value,
// compute, and write back — exactly the access pattern most exposed to a
// concurrent mover relocating the block in between. ApplyInto closes that
// window by running the whole cycle as one critical section (the shard
// lock), so the protocol layer gets linearizable RMW without knowing
// anything about locks or relocation.

// ApplyVerdict selects what ApplyInto does after the callback has inspected
// the current value.
type ApplyVerdict int

const (
	// ApplyNone leaves the entry untouched (cas mismatch, incr on a
	// non-numeric value).
	ApplyNone ApplyVerdict = iota
	// ApplyStore replaces — or, when the key was absent, inserts — the
	// value.
	ApplyStore
	// ApplyTouch keeps the stored bytes and replaces only the expiry
	// deadline (memcached `touch`).
	ApplyTouch
	// ApplyDelete removes the entry.
	ApplyDelete
)

// RMWStat names a StatsSnapshot counter for ApplyInto (and TouchBytes) to
// bump while still holding the shard lock, so protocol-level hit/miss
// accounting can never disagree with the outcome that produced it.
type RMWStat int

const (
	// StatNone bumps nothing.
	StatNone RMWStat = iota
	// StatCasHit … StatCasMiss partition memcached `cas` outcomes.
	StatCasHit
	StatCasBadval
	StatCasMiss
	// StatIncrHit/StatIncrMiss and the decr pair partition incr/decr.
	StatIncrHit
	StatIncrMiss
	StatDecrHit
	StatDecrMiss
	// StatTouchHit/StatTouchMiss partition touch (and gat's touch half).
	StatTouchHit
	StatTouchMiss
)

// ApplyOp is the outcome an ApplyInto callback returns.
type ApplyOp struct {
	Verdict ApplyVerdict
	// Value is stored under ApplyStore.
	Value []byte
	// Expire is the new deadline under ApplyStore and ApplyTouch; the
	// zero time means "never expires".
	Expire time.Time
	// KeepExpire retains the entry's current deadline under ApplyStore —
	// incr/decr/append/prepend mutate the value without touching its TTL.
	KeepExpire bool
	// Stat is the counter to bump, whatever the verdict.
	Stat RMWStat
}

// touchApply builds TouchBytes's apply callback: update the deadline on a
// live entry, count the hit/miss either way.
func touchApply(expireAt time.Time, found *bool) func(old []byte, ok bool) ApplyOp {
	return func(_ []byte, ok bool) ApplyOp {
		*found = ok
		if !ok {
			return ApplyOp{Stat: StatTouchMiss}
		}
		return ApplyOp{Verdict: ApplyTouch, Expire: expireAt, Stat: StatTouchHit}
	}
}

// expiredAt reports whether the entry's deadline has passed at now; a
// zero deadline never expires. Memcached semantics: an item is dead the
// moment now reaches the deadline.
func (e *entry) expiredAt(now time.Time) bool {
	return !e.expireAt.IsZero() && !now.Before(e.expireAt)
}

// sweepBudgetPerShard bounds how many entries one Maintain tick examines
// per shard looking for expired items. Each tick continues along the
// shard's LRU list from where the last stopped, so a shard of n entries
// is covered every ⌈n/64⌉ ticks — the shape of memcached's LRU crawler —
// and memory held by dead items is reclaimed even if they are never
// touched again.
const sweepBudgetPerShard = 64
