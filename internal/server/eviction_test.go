package server

// Eviction-semantics battery over the wire, on all three backends: the
// store runs under a small global memory ceiling and the transcripts
// prove memcached `-m` behavior end to end — LRU order respected across
// get/gat/RMW touches, overwrites discounting the replaced entry's
// bytes, oversized values rejected with SERVER_ERROR and zero
// evictions, and the charged `bytes` total never exceeding
// `limit_maxbytes` after any op.

import (
	"bufio"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"alaska/internal/kv"
)

// startServerWithCap is startServer with a store-wide memory ceiling.
func startServerWithCap(t *testing.T, backend kv.Backend, cfg Config, maxMemory uint64) *Server {
	t.Helper()
	store := kv.NewShardedStore(backend, 8, maxMemory)
	srv := New(store, cfg)
	if cfg.ConnModel == "event" {
		requireEventModel(t, srv)
	}
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	go func() {
		if err := srv.Serve(); err != nil {
			t.Errorf("serve: %v", err)
		}
	}()
	t.Cleanup(func() { _ = srv.Shutdown(2 * time.Second) })
	return srv
}

// forEachBackendWithCap runs fn against a ceiling-capped server on each
// of the three network-facing backends.
func forEachBackendWithCap(t *testing.T, cfg Config, maxMemory uint64, fn func(t *testing.T, srv *Server)) {
	for _, name := range backends {
		t.Run(name, func(t *testing.T) { fn(t, startServerWithCap(t, testBackend(t, name), cfg, maxMemory)) })
	}
}

// sameShardKeys returns n keys of equal length that all hash to one
// shard (the store's FNV-1a placement), so transcript-level eviction
// order is the plain LRU order with no cross-shard spill involved.
func sameShardKeys(t *testing.T, n, shards int) []string {
	t.Helper()
	const (
		fnvOffset32 = 2166136261
		fnvPrime32  = 16777619
	)
	shardOf := func(key string) int {
		h := uint32(fnvOffset32)
		for i := 0; i < len(key); i++ {
			h ^= uint32(key[i])
			h *= fnvPrime32
		}
		return int(h % uint32(shards))
	}
	var keys []string
	for i := 0; len(keys) < n && i < 100000; i++ {
		k := "ev" + string([]byte{byte('a' + i/26 % 26), byte('a' + i%26)}) + string([]byte{byte('0' + i/676 % 10)})
		if shardOf(k) == 0 {
			keys = append(keys, k)
		}
	}
	if len(keys) < n {
		t.Fatalf("could not find %d same-shard keys", n)
	}
	return keys
}

// storedCost is the charged kv-level cost of one server-stored value:
// the wire body plus the 12-byte flags+cas header the server prepends,
// the key, and the per-entry overhead.
func storedCost(keyLen, bodyLen int) uint64 {
	return uint64(keyLen) + uint64(valueHeaderLen+bodyLen) + kv.EntryOverhead
}

// checkCeiling asserts bytes <= limit_maxbytes on the live store.
func checkCeiling(t *testing.T, srv *Server, when string) {
	t.Helper()
	snap := srv.store.Snapshot()
	if snap.Bytes > snap.LimitMaxbytes {
		t.Fatalf("%s: bytes %d exceeds limit_maxbytes %d", when, snap.Bytes, snap.LimitMaxbytes)
	}
}

const evBody = "0123456789012345678901234567890123456789" // 40 bytes

func evSet(key string) step {
	return step{"set " + key + " 0 0 40\r\n" + evBody + "\r\n", "STORED\r\n"}
}

func evHit(key string) step {
	return step{"get " + key + "\r\n", "VALUE " + key + " 0 40\r\n" + evBody + "\r\nEND\r\n"}
}

func evMiss(key string) step {
	return step{"get " + key + "\r\n", "END\r\n"}
}

func TestEvictionLRUOrderOverWire(t *testing.T) {
	keys := sameShardKeys(t, 5, 8)
	k0, k1, k2, k3, k4 := keys[0], keys[1], keys[2], keys[3], keys[4]
	ceiling := 3 * storedCost(len(k0), len(evBody))
	cfg := Config{Addr: "127.0.0.1:0", Version: "evtest", MaxValueSize: 64 << 10}
	forEachBackendWithCap(t, cfg, ceiling, func(t *testing.T, srv *Server) {
		addr := srv.Addr()
		runTranscript(t, addr, []step{evSet(k0), evSet(k1), evSet(k2)})
		checkCeiling(t, srv, "after fill")
		// Refresh k0 (get) then k1 (gat): k2 becomes the LRU victim.
		runTranscript(t, addr, []step{
			evHit(k0),
			{"gat 0 " + k1 + "\r\n", "VALUE " + k1 + " 0 40\r\n" + evBody + "\r\nEND\r\n"},
			evSet(k3),
			evMiss(k2),
		})
		checkCeiling(t, srv, "after first eviction")
		// Verify survivors; these gets also reorder recency to k3 > k1 > k0.
		runTranscript(t, addr, []step{evHit(k0), evHit(k1), evHit(k3)})
		// An RMW (append) refreshes k0, so the next eviction takes k1.
		runTranscript(t, addr, []step{
			{"append " + k0 + " 0 0 0\r\n\r\n", "STORED\r\n"},
			evSet(k4),
			evMiss(k1),
			evHit(k0),
			evHit(k3),
			evHit(k4),
		})
		checkCeiling(t, srv, "after second eviction")
		snap := srv.store.Snapshot()
		if snap.Evictions != 2 {
			t.Errorf("evictions = %d, want exactly 2 (k2 then k1)", snap.Evictions)
		}
		if snap.Keys != 3 {
			t.Errorf("curr_items = %d, want 3", snap.Keys)
		}
	})
}

// TestOversizedValueOverWire: a full store must survive an oversized
// set untouched — SERVER_ERROR on the wire, zero evictions, every
// previously stored value still readable.
func TestOversizedValueOverWire(t *testing.T) {
	keys := sameShardKeys(t, 3, 8)
	ceiling := 3 * storedCost(len(keys[0]), len(evBody))
	cfg := Config{Addr: "127.0.0.1:0", Version: "evtest", MaxValueSize: 64 << 10}
	forEachBackendWithCap(t, cfg, ceiling, func(t *testing.T, srv *Server) {
		big := strings.Repeat("x", int(ceiling))
		runTranscript(t, srv.Addr(), []step{
			evSet(keys[0]), evSet(keys[1]), evSet(keys[2]),
			// Larger than the whole ceiling (but under -max-value-size):
			// rejected up front, for set and the conditional stores alike.
			{"set huge 0 0 " + strconv.Itoa(len(big)) + "\r\n" + big + "\r\n",
				"SERVER_ERROR object too large for cache\r\n"},
			{"add huge2 0 0 " + strconv.Itoa(len(big)) + "\r\n" + big + "\r\n",
				"SERVER_ERROR object too large for cache\r\n"},
			evHit(keys[0]), evHit(keys[1]), evHit(keys[2]),
		})
		snap := srv.store.Snapshot()
		if snap.Evictions != 0 || snap.Reclaimed != 0 {
			t.Errorf("oversized set evicted: evictions=%d reclaimed=%d, want 0",
				snap.Evictions, snap.Reclaimed)
		}
		checkCeiling(t, srv, "after oversized rejects")
	})
}

// TestOverwriteDiscountOverWire: same-size overwrites of a full store
// need no net room and must evict nothing.
func TestOverwriteDiscountOverWire(t *testing.T) {
	keys := sameShardKeys(t, 3, 8)
	ceiling := 3 * storedCost(len(keys[0]), len(evBody))
	cfg := Config{Addr: "127.0.0.1:0", Version: "evtest", MaxValueSize: 64 << 10}
	forEachBackendWithCap(t, cfg, ceiling, func(t *testing.T, srv *Server) {
		steps := []step{evSet(keys[0]), evSet(keys[1]), evSet(keys[2])}
		for i := 0; i < 6; i++ {
			steps = append(steps, evSet(keys[i%3]))
		}
		steps = append(steps, evHit(keys[0]), evHit(keys[1]), evHit(keys[2]))
		runTranscript(t, srv.Addr(), steps)
		snap := srv.store.Snapshot()
		if snap.Evictions != 0 {
			t.Errorf("evictions = %d across same-size overwrites, want 0", snap.Evictions)
		}
		if snap.Bytes != ceiling {
			t.Errorf("bytes = %d, want the full ceiling %d", snap.Bytes, ceiling)
		}
	})
}

// TestStatsCeilingRows: the stats reply carries the new accounting rows
// and `stats items` emits per-shard rows; an unknown sub-command errors.
func TestStatsCeilingRows(t *testing.T) {
	keys := sameShardKeys(t, 4, 8)
	ceiling := 3 * storedCost(len(keys[0]), len(evBody))
	cfg := Config{Addr: "127.0.0.1:0", Version: "evtest", MaxValueSize: 64 << 10}
	srv := startServerWithCap(t, kv.NewMallocBackend(), cfg, ceiling)
	runTranscript(t, srv.Addr(), []step{
		evSet(keys[0]), evSet(keys[1]), evSet(keys[2]),
		evHit(keys[0]),
		evSet(keys[3]), // evicts keys[1] (never fetched)
	})

	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	r := bufio.NewReader(c)
	readStats := func(cmd string) map[string]string {
		t.Helper()
		if _, err := c.Write([]byte(cmd + "\r\n")); err != nil {
			t.Fatal(err)
		}
		out := map[string]string{}
		_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
		for {
			line, err := r.ReadString('\n')
			if err != nil {
				t.Fatalf("%s: %v", cmd, err)
			}
			line = strings.TrimRight(line, "\r\n")
			if line == "END" {
				return out
			}
			f := strings.Fields(line)
			if len(f) != 3 || f[0] != "STAT" {
				t.Fatalf("%s: bad line %q", cmd, line)
			}
			out[f[1]] = f[2]
		}
	}

	st := readStats("stats")
	if st["limit_maxbytes"] != strconv.Itoa(int(ceiling)) {
		t.Errorf("limit_maxbytes = %s, want %d", st["limit_maxbytes"], ceiling)
	}
	if st["bytes"] != strconv.Itoa(int(ceiling)) { // 3 live entries = full ceiling
		t.Errorf("bytes = %s, want %d", st["bytes"], ceiling)
	}
	if st["evictions"] != "1" || st["evicted_unfetched"] != "1" {
		t.Errorf("evictions/evicted_unfetched = %s/%s, want 1/1",
			st["evictions"], st["evicted_unfetched"])
	}
	if _, ok := st["reclaimed"]; !ok {
		t.Error("stats reply missing reclaimed row")
	}
	if _, ok := st["used_bytes"]; !ok {
		t.Error("stats reply missing used_bytes row")
	}

	items := readStats("stats items")
	if items["items:0:number"] != "3" {
		t.Errorf("items:0:number = %s, want 3 (all battery keys hash to shard 0)", items["items:0:number"])
	}
	if items["items:0:evicted"] != "1" {
		t.Errorf("items:0:evicted = %s, want 1", items["items:0:evicted"])
	}
	for i := 1; i < 8; i++ {
		if items["items:"+strconv.Itoa(i)+":number"] != "0" {
			t.Errorf("items:%d:number = %s, want 0", i, items["items:"+strconv.Itoa(i)+":number"])
		}
	}

	runTranscript(t, srv.Addr(), []step{
		{"stats nosuch\r\n", "ERROR\r\n"},
	})
}
