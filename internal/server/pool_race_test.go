package server

// Pooled-buffer aliasing stress: every connection handler owns scratch
// buffers (key/body/value/header) that the allocation-free request path
// reuses for every command. This test proves those buffers never alias
// across connections — pipelined clients hammer both private and shared
// keys while the pause-free defrag pass runs, and every reply must be (a) the
// exact bytes this client last wrote (read-your-writes on private keys)
// and (b) an untorn, single-writer value on the shared keys. A scratch
// buffer leaking between connections, or a kv copy-out escaping its
// critical section, shows up as a mixed-tag value here (and as a data
// race under `go test -race`).

import (
	"bytes"
	"math/rand"
	"strconv"
	"sync"
	"testing"
)

func TestPooledBuffersNoCrossConnectionAliasing(t *testing.T) {
	srv := startDefragStressServer(t, defragStress)

	const workers = 4
	rounds := 1500
	if testing.Short() {
		rounds = 400
	}

	// fill builds a value whose every byte carries the writer's tag, so a
	// reply assembled from two connections' scratch memory is detectable
	// byte-by-byte.
	fill := func(tag byte, size int) []byte {
		v := make([]byte, size)
		for i := range v {
			v[i] = tag
		}
		return v
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			rng := rand.New(rand.NewSource(int64(w) + 77))
			tag := byte(0x40 + w) // private tag; shared writes use 0xA0|w
			priv := "priv" + strconv.Itoa(w)
			var lastPriv []byte
			for op := 0; op < rounds; op++ {
				// Pipelined burst: two noreply sets (one private, one
				// shared — same key for all workers every third round,
				// distinct shared keys otherwise) followed by a get that
				// flushes the pipeline.
				privVal := fill(tag, 32+rng.Intn(993))
				if err := cl.SetNoreply(priv, 0, privVal); err != nil {
					t.Errorf("worker %d set %s: %v", w, priv, err)
					return
				}
				lastPriv = privVal
				shared := "shared" + strconv.Itoa(op%3)
				sharedVal := fill(0xA0|byte(w), 32+rng.Intn(993))
				if err := cl.SetNoreply(shared, 0, sharedVal); err != nil {
					t.Errorf("worker %d set %s: %v", w, shared, err)
					return
				}
				// Read-your-writes on the private key: exact bytes, exact
				// length, no other writer exists.
				got, _, ok, err := cl.Get(priv)
				if err != nil || !ok {
					t.Errorf("worker %d get %s: ok=%v err=%v", w, priv, ok, err)
					return
				}
				if !bytes.Equal(got, lastPriv) {
					t.Errorf("worker %d read-your-writes violated on %s: got %d bytes (first=%#x), want %d bytes (tag %#x)",
						w, priv, len(got), got[0], len(lastPriv), tag)
					return
				}
				// The shared key may have been overwritten by any worker,
				// but the reply must be one writer's complete value: every
				// byte the same shared-range tag.
				sgot, _, ok, err := cl.Get(shared)
				if err != nil || !ok {
					t.Errorf("worker %d get %s: ok=%v err=%v", w, shared, ok, err)
					return
				}
				first := sgot[0]
				if first&0xF8 != 0xA0 {
					t.Errorf("worker %d get %s: first byte %#x is not a shared-writer tag", w, shared, first)
					return
				}
				for i, b := range sgot {
					if b != first {
						t.Errorf("worker %d get %s: torn value — byte %d is %#x, byte 0 is %#x (len %d)",
							w, shared, i, b, first, len(sgot))
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	st, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st["protocol_errors"] != "0" {
		t.Errorf("protocol_errors = %s, want 0", st["protocol_errors"])
	}
	// Mutation: drop the line in New that installs the pause-free pass on
	// the backend's controller, and no concurrent pass runs: this fails.
	conc, _ := strconv.ParseInt(st["defrag_concurrent_passes"], 10, 64)
	barr, _ := strconv.ParseInt(st["defrag_barrier_passes"], 10, 64)
	if conc == 0 {
		t.Error("no defrag passes ran under the pipelined traffic; the aliasing test proved nothing")
	}
	if barr != 0 {
		t.Errorf("defrag_barrier_passes = %d: the server stopped the world", barr)
	}
	t.Logf("pooled-buffer aliasing stress: %d concurrent passes, moved=%s bytes",
		conc, st["defrag_moved_bytes"])
}
