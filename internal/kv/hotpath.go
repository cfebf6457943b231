package kv

import "unsafe"

// This file holds the two tiny helpers the allocation-free paths are
// built on: scratch-buffer growth and a no-copy string→[]byte view.

// growBytes returns a slice of length n, reusing b's storage when it is
// large enough and allocating (with headroom, so jittered value sizes
// converge instead of reallocating every near-miss) when it is not.
func growBytes(b []byte, n int) []byte {
	if cap(b) >= n {
		return b[:n]
	}
	c := 2 * cap(b)
	if c < n {
		c = n
	}
	return make([]byte, n, c)
}

// unsafeKeyBytes views a string's bytes as a []byte without copying.
// The result must never be written through — every core path only
// hashes the key, looks it up in a map, or re-interns it with an
// explicit string(key) copy — and must not outlive the string. Dump uses
// it to hand interned keys to its callback without a copy each.
func unsafeKeyBytes(s string) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice(unsafe.StringData(s), len(s))
}
