package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// The catalogue is BENCHMARK.json in code; a test holds the two equal.

const runSeconds = 20

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// Gated: no absolute time and no percentile above the median, because on
// this machine those do not repeat; setup_s is null-normalised seconds.
// cpu_vs_null was specified as the fifth and demoted to client.cpu_vs_null by
// the issue's one-shot rule: its IQR/median read 0.082 on persist_mixed in
// the first calibration set, above the rule's 0.08 (README, Calibration).
var endToEndDefs = []metricDef{
	{"lat_p50_vs_null", "ratio", "lower", 0.20},
	{"hit_ratio", "ratio", "higher", 0.05},
	{"rss_per_live_byte", "ratio", "lower", 0.20},
	{"setup_s", "s", "lower", 0.25},
}

var perLayerDefs = []metricDef{
	// Ledger: one in-process fixture, median of batches.
	{Name: "mem.read_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.write_ns", Unit: "ns", Better: "lower"},
	{Name: "mem.read_par_ns", Unit: "ns", Better: "lower"},
	{Name: "handle.translate_ns", Unit: "ns", Better: "lower"},
	{Name: "handle.translate_par_ns", Unit: "ns", Better: "lower"},
	{Name: "rt.pin_unpin_ns", Unit: "ns", Better: "lower"},
	{Name: "rt.barrier_us", Unit: "us", Better: "lower"},
	{Name: "anchorage.alloc_free_ns", Unit: "ns", Better: "lower"},
	{Name: "mallocsim.alloc_free_ns", Unit: "ns", Better: "lower"},
	{Name: "anchorage.defrag_mib_per_s", Unit: "MiB/s", Better: "higher"},
	{Name: "kv.get_ns.anchorage", Unit: "ns", Better: "lower"},
	{Name: "kv.get_ns.malloc", Unit: "ns", Better: "lower"},
	{Name: "kv.set_ns.anchorage", Unit: "ns", Better: "lower"},
	{Name: "kv.set_ns.malloc", Unit: "ns", Better: "lower"},
	{Name: "kv.get_par_ns.anchorage", Unit: "ns", Better: "lower"},
	{Name: "kv.set_par_ns.anchorage", Unit: "ns", Better: "lower"},
	{Name: "kv.get_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.logset_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.fsync_p50_us", Unit: "us", Better: "lower"},
	// Derived, so that the budget closes by construction.
	{Name: "kv.handle_tax_ns", Unit: "ns", Better: "lower"},
	{Name: "kv.self_ns", Unit: "ns", Better: "lower"},
	{Name: "server.service_ns", Unit: "ns", Better: "lower"},
	{Name: "server.parse_reply_ns", Unit: "ns", Better: "lower"},
	{Name: "server.wire_ns", Unit: "ns", Better: "lower"},
	// Per workload: deltas over alaskad's segments.
	{Name: "kv.gets", Unit: "count", Better: "higher"},
	{Name: "kv.hits", Unit: "count", Better: "higher"},
	{Name: "kv.sets", Unit: "count", Better: "higher"},
	{Name: "kv.evictions", Unit: "count", Better: "lower"},
	{Name: "kv.live_bytes", Unit: "bytes", Better: "higher"},
	{Name: "rt.pins", Unit: "count", Better: "lower"},
	{Name: "rt.barriers", Unit: "count", Better: "lower"},
	{Name: "rt.moved_bytes", Unit: "bytes", Better: "lower"},
	{Name: "anchorage.passes", Unit: "count", Better: "lower"},
	{Name: "anchorage.concurrent_passes", Unit: "count", Better: "lower"},
	{Name: "anchorage.move_aborts", Unit: "count", Better: "lower"},
	{Name: "anchorage.frag", Unit: "ratio", Better: "lower"},
	{Name: "mem.rss_bytes", Unit: "bytes", Better: "lower"},
	{Name: "mem.faults", Unit: "count", Better: "lower"},
	{Name: "wal.appended_bytes", Unit: "bytes", Better: "lower"},
	{Name: "wal.bytes_per_user_byte", Unit: "ratio", Better: "lower"},
	{Name: "wal.fsyncs", Unit: "count", Better: "lower"},
	{Name: "wal.dropped_records", Unit: "count", Better: "lower"},
	{Name: "wal.replay_s", Unit: "s", Better: "lower"},
	{Name: "server.protocol_errors", Unit: "count", Better: "lower"},
	{Name: "server.worker_queue_depth_max", Unit: "count", Better: "lower"},
	{Name: "go.allocs_per_op", Unit: "1/op", Better: "lower"},
	{Name: "go.gc_pause_us", Unit: "us", Better: "lower"},
	{Name: "client.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "client.ops_vs_null", Unit: "ratio", Better: "higher"},
	{Name: "client.lat_p50_us", Unit: "us", Better: "lower"},
	{Name: "client.lat_p90_vs_null", Unit: "ratio", Better: "lower"},
	{Name: "client.lat_p99_us", Unit: "us", Better: "lower"},
	{Name: "client.lat_tail_pct", Unit: "%", Better: "higher"},
	{Name: "client.lat_tail_us", Unit: "us", Better: "lower"},
	{Name: "client.cpu_us_per_op", Unit: "us", Better: "lower"},
	{Name: "client.cpu_vs_null", Unit: "ratio", Better: "lower"},
	{Name: "client.fail_ratio", Unit: "ratio", Better: "lower"},
	{Name: "client.samples", Unit: "count", Better: "higher"},
	{Name: "client.setup_raw_s", Unit: "s", Better: "lower"},
	{Name: "null.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "null.lat_p50_us", Unit: "us", Better: "lower"},
	{Name: "null.setup_s", Unit: "s", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "higher"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// emit prints every metric of defs by name with its unit, then the result
// line: one JSON object, the last line of standard output.
func emit(w io.Writer, defs []metricDef, values map[string]float64, correct bool, attempted, failed int64) error {
	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, attempted, failed, make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v := values[d.Name]
		fmt.Fprintf(w, "%-32s %s %s\n", d.Name, strconv.FormatFloat(v, 'g', -1, 64), d.Unit)
		out.Metrics[d.Name] = metricValue{v, d.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
