package main

// conns is the closed-loop connection count: four per CPU on the 2-vCPU
// machine this was calibrated on. With fewer the CPUs idle between requests
// and the median measures the hypervisor's wake path, not CPU cost per
// request. Key k is written only by connection k % conns, which is what
// defines "last acknowledged write".
const conns = 8

// workload is one traffic mix. Sizes are whole values as the client sends
// them, header included.
type workload struct {
	name, why        string
	keys             int     // key space
	preload          int     // hottest keys loaded during set-up
	minSize, maxSize int     // SET value bytes, uniform
	setPct           int     // SETs per 100 ops
	depth            int     // ops per round trip
	maxMemory        uint64  // store-wide ceiling, 0 = none; a miss is legal only under one
	persist          bool    // attach a wal.Log on a temp dir
	pool             int     // pre-rendered round trips per connection, cycled
	nullSetupRef     float64 // s: the null set-up's median at calibration, frozen
}

var workloads = []workload{
	{
		name: "get_closed",
		why:  "100% GET, one per round trip over 20000 x 512 B: syscalls, poller hand-off, parse and reply are ~99% of it, so wire-side work shows and heap-layer work is predicted flat",
		keys: 20000, preload: 20000, minSize: 512, maxSize: 512, depth: 1, pool: 16384,
		nullSetupRef: 0.020,
	},
	{
		name: "get_pipelined",
		why:  "same data, 32 GETs per round trip: syscalls amortise 32x, so parse, shard lock, pin and the mem.Space copy dominate; heap-read work shows and wire-only work is predicted flat",
		keys: 20000, preload: 20000, minSize: 512, maxSize: 512, depth: 32, pool: 2048,
		nullSetupRef: 0.020,
	},
	{
		name: "churn_ceiling",
		why:  "70/30 GET/SET of 128-1024 B, 8 per round trip, 100000 keys at 4x a 16 MiB ceiling: alloc/free, LRU eviction and defrag do the work; the only workload where hit_ratio and rss_per_live_byte can move",
		keys: 100000, preload: 25000, minSize: 128, maxSize: 1024, setPct: 30, depth: 8, pool: 2048,
		maxMemory: 16 << 20, nullSetupRef: 0.025,
	},
	{
		name: "persist_mixed",
		why:  "50/50 GET/SET of 512 B, 8 per round trip with a wal.Log at the default 100 ms fsync: ring append, CRC framing, the fsync thread and replay work nowhere else",
		keys: 20000, preload: 20000, minSize: 512, maxSize: 512, setPct: 50, depth: 8, pool: 2048,
		persist: true, nullSetupRef: 0.020,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
