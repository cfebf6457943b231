package kv

import (
	"bytes"
	"time"
)

// String-keyed shorthand for the tests. Each helper is one call of the
// byte-keyed API at one reading of the store's clock (its Clock, else the
// wall clock) — the reading a server command would have been handed.

// set stores key=value unconditionally, with no deadline.
func set(s *ShardedStore, sess Session, key string, value []byte) error {
	_, err := setEx(s, sess, key, value, SetAlways, time.Time{})
	return err
}

func setEx(s *ShardedStore, sess Session, key string, value []byte, mode SetMode, expireAt time.Time) (bool, error) {
	return s.SetExBytesAt(sess, []byte(key), value, mode, expireAt, s.now())
}

// get returns key's value in a fresh slice: nil on a miss, non-nil (if
// empty) on a hit.
func get(s *ShardedStore, sess Session, key string) ([]byte, error) {
	v, hit, err := s.GetIntoAt(sess, []byte(key), nil, s.now())
	if !hit {
		return nil, err
	}
	if v == nil {
		v = []byte{}
	}
	return v, err
}

func del(s *ShardedStore, sess Session, key string) (bool, error) {
	return s.DelBytes(sess, []byte(key), s.now())
}

func touch(s *ShardedStore, sess Session, key string, expireAt time.Time) (bool, error) {
	return s.TouchBytes(sess, []byte(key), expireAt, s.now())
}

func apply(s *ShardedStore, sess Session, key string, fn func(old []byte, found bool) ApplyOp) error {
	_, err := s.ApplyInto(sess, []byte(key), nil, s.now(), fn)
	return err
}

// cas stores next only if key's value is byte-equal to expected, as one
// critical section, reporting whether it swapped and whether key was
// there at all.
func cas(s *ShardedStore, sess Session, key string, expected, next []byte) (swapped, found bool, err error) {
	err = apply(s, sess, key, casApply(expected, next, &swapped, &found))
	return swapped, found, err
}

// casApply builds cas's ApplyInto callback: swap in next only if the
// current value is byte-equal to expected, keeping the deadline and
// bumping the matching cas counter. The outcome flags are written through
// the pointers while the callback still holds the shard lock.
func casApply(expected, next []byte, swapped, found *bool) func(old []byte, ok bool) ApplyOp {
	return func(old []byte, ok bool) ApplyOp {
		*found = ok
		if !ok {
			return ApplyOp{Stat: StatCasMiss}
		}
		if !bytes.Equal(old, expected) {
			return ApplyOp{Stat: StatCasBadval}
		}
		*swapped = true
		return ApplyOp{Verdict: ApplyStore, Value: next, KeepExpire: true, Stat: StatCasHit}
	}
}
