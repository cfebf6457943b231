package server

import (
	"math"
	"sync/atomic"
	"time"

	"alaska/internal/kv"
	"alaska/internal/metrics"
	"alaska/internal/wal"
)

// sampledFloat decodes a gauge stored as math.Float64bits in an atomic.
func sampledFloat(v *atomic.Uint64) float64 {
	return math.Float64frombits(v.Load())
}

// registryState is the server's lazily-built metrics registry plus the
// per-scrape store snapshot the func-backed series read: the OnScrape
// hook refreshes it once, so one /metrics scrape costs one Snapshot
// walk no matter how many series render from it.
type registryState struct {
	reg  *metrics.Registry
	snap kv.StatsSnapshot
}

// MetricsRegistry returns the server's Prometheus registry, building it
// on first use. Registration happens exactly once; afterwards the only
// shared work is at scrape time — the request path never sees the
// registry at all (it bumps the atomics the registry renders from, and
// records latency into per-worker stripes that a scrape folds into the
// recorders the registry renders).
func (s *Server) MetricsRegistry() *metrics.Registry {
	s.registryOnce.Do(func() {
		s.registry = s.buildRegistry()
	})
	return s.registry.reg
}

func (s *Server) buildRegistry() *registryState {
	st := &registryState{reg: metrics.NewRegistry()}
	r := st.reg
	r.OnScrape(func() {
		st.snap = s.store.Snapshot()
		s.foldLatency()
	})

	// Identity and lifetime.
	r.Family("alaskad_info", metrics.KindGauge,
		"Build/runtime identity; value is always 1.").
		Func(`version="`+s.cfg.Version+`",backend="`+s.store.Backend().Name()+`"`,
			func() float64 { return 1 })
	r.GaugeFunc("alaskad_uptime_seconds", "Seconds since the server started serving.",
		func() float64 { return time.Since(s.start).Seconds() })

	// Per-opcode command latency: the tentpole histogram family. The
	// children are the published recorders, which the OnScrape hook above
	// brings up to date from the per-worker stripes the hot path writes;
	// exposing them costs nothing per request.
	f := r.Family("alaskad_op_latency_seconds", metrics.KindHistogram,
		"Command latency by opcode: server-side time per command, reply generation included; a pipelined command is timed from the end of the one before it.")
	for i, rec := range s.perOp {
		f.Histogram(`op="`+cmdNames[i]+`"`, rec)
	}
	r.Histogram("alaskad_command_latency_seconds",
		"Command latency across all opcodes: the sum of the alaskad_op_latency_seconds series, same interval.", s.lat)

	// Socket byte totals (counted in the conn read/write wrappers).
	r.CounterFunc("alaskad_bytes_read_total", "Bytes read from client sockets.",
		func() float64 { return float64(s.bytesRead.Load()) })
	r.CounterFunc("alaskad_bytes_written_total", "Bytes written to client sockets.",
		func() float64 { return float64(s.bytesWritten.Load()) })

	// Store operation counters, from the per-scrape snapshot.
	ops := r.Family("alaskad_store_ops_total", metrics.KindCounter,
		"Store operations by opcode and outcome.")
	snapCtr := func(labels string, get func(*kv.StatsSnapshot) int64) {
		ops.Func(labels, func() float64 { return float64(get(&st.snap)) })
	}
	snapCtr(`op="get",outcome="hit"`, func(sn *kv.StatsSnapshot) int64 { return sn.Hits })
	snapCtr(`op="get",outcome="miss"`, func(sn *kv.StatsSnapshot) int64 { return sn.Misses })
	snapCtr(`op="set",outcome="stored"`, func(sn *kv.StatsSnapshot) int64 { return sn.Sets })
	snapCtr(`op="delete",outcome="hit"`, func(sn *kv.StatsSnapshot) int64 { return sn.DeleteHits })
	snapCtr(`op="delete",outcome="miss"`, func(sn *kv.StatsSnapshot) int64 { return sn.DeleteMisses })
	snapCtr(`op="cas",outcome="hit"`, func(sn *kv.StatsSnapshot) int64 { return sn.CasHits })
	snapCtr(`op="cas",outcome="badval"`, func(sn *kv.StatsSnapshot) int64 { return sn.CasBadval })
	snapCtr(`op="cas",outcome="miss"`, func(sn *kv.StatsSnapshot) int64 { return sn.CasMisses })
	snapCtr(`op="incr",outcome="hit"`, func(sn *kv.StatsSnapshot) int64 { return sn.IncrHits })
	snapCtr(`op="incr",outcome="miss"`, func(sn *kv.StatsSnapshot) int64 { return sn.IncrMisses })
	snapCtr(`op="decr",outcome="hit"`, func(sn *kv.StatsSnapshot) int64 { return sn.DecrHits })
	snapCtr(`op="decr",outcome="miss"`, func(sn *kv.StatsSnapshot) int64 { return sn.DecrMisses })
	snapCtr(`op="touch",outcome="hit"`, func(sn *kv.StatsSnapshot) int64 { return sn.TouchHits })
	snapCtr(`op="touch",outcome="miss"`, func(sn *kv.StatsSnapshot) int64 { return sn.TouchMisses })

	// Item lifecycle pressure.
	r.CounterFunc("alaskad_evictions_total", "Live entries evicted under memory pressure.",
		func() float64 { return float64(st.snap.Evictions) })
	r.CounterFunc("alaskad_evicted_unfetched_total", "Evicted entries never fetched after storing.",
		func() float64 { return float64(st.snap.EvictedUnfetched) })
	r.CounterFunc("alaskad_expired_total", "Entries reclaimed past their deadline.",
		func() float64 { return float64(st.snap.Expired) })
	r.CounterFunc("alaskad_reclaimed_total", "Dead entries removed by the eviction walk.",
		func() float64 { return float64(st.snap.Reclaimed) })
	r.CounterFunc("alaskad_expiry_sweeps_total", "Maintenance expiry-sweep rounds.",
		func() float64 { return float64(st.snap.ExpirySweeps) })

	// Memory gauges. RSS/fragmentation are the maintenance-tick samples,
	// so a scrape storm cannot add store traffic.
	r.GaugeFunc("alaskad_items", "Live items.",
		func() float64 { return float64(st.snap.Keys) })
	r.GaugeFunc("alaskad_item_bytes", "Charged item bytes (value + key + overhead).",
		func() float64 { return float64(st.snap.Bytes) })
	r.GaugeFunc("alaskad_limit_bytes", "Configured memory ceiling (0 = unlimited).",
		func() float64 { return float64(st.snap.LimitMaxbytes) })
	r.GaugeFunc("alaskad_used_bytes", "Allocator-level live bytes.",
		func() float64 { return float64(st.snap.Used) })
	r.GaugeFunc("alaskad_rss_bytes", "Sampled resident set of the value heap.",
		func() float64 { return float64(s.sampledRSS.Load()) })
	r.GaugeFunc("alaskad_heap_fragmentation", "Sampled heap fragmentation ratio.",
		func() float64 { return sampledFloat(&s.sampledFrag) })

	// Connection plane.
	r.GaugeFunc("alaskad_connections", "Currently open client connections.",
		func() float64 { return float64(s.currConns.Load()) })
	r.CounterFunc("alaskad_connections_total", "Client connections ever accepted.",
		func() float64 { return float64(s.totalConns.Load()) })
	r.CounterFunc("alaskad_listen_disabled_total", "Accepts deferred at the -max-conns cap.",
		func() float64 { return float64(s.listenDisabled.Load()) })
	r.CounterFunc("alaskad_accept_errors_total", "Transient accept failures.",
		func() float64 { return float64(s.acceptErrors.Load()) })
	r.CounterFunc("alaskad_idle_kicks_total", "Connections reaped for idling past -idle-timeout.",
		func() float64 { return float64(s.idleKicks.Load()) })
	r.CounterFunc("alaskad_slow_client_kicks_total", "Connections dropped for not draining replies.",
		func() float64 { return float64(s.slowKicks.Load()) })
	r.CounterFunc("alaskad_protocol_errors_total", "Commands answered with a protocol error.",
		func() float64 { return float64(s.protocolErrors.Load()) })
	r.CounterFunc("alaskad_slow_ops_total", "Commands slower than -slow-op-threshold.",
		func() float64 { return float64(s.slowOpTotal()) })
	r.GaugeFunc("alaskad_conns_parked", "Connections parked in the readiness poller (event model).",
		func() float64 { parked, _, _ := s.pollerGauges(); return float64(parked) })
	r.GaugeFunc("alaskad_conns_active", "Connections queued for or running on a worker (event model).",
		func() float64 { _, active, _ := s.pollerGauges(); return float64(active) })
	r.GaugeFunc("alaskad_worker_queue_depth", "Ready connections awaiting a free worker (event model).",
		func() float64 { _, _, queued := s.pollerGauges(); return float64(queued) })

	// Defragmentation / runtime telemetry (meaningful on the Anchorage
	// backend; the histograms exist — empty — on every backend so
	// dashboards need no backend-conditional queries).
	r.Histogram("alaskad_defrag_pass_duration_seconds",
		"Duration of pause-free concurrent defrag passes.", s.passLat)
	r.Histogram("alaskad_defrag_pause_seconds",
		"Stop-the-world pause per maintenance barrier pass.", s.pauseLat)
	r.Histogram("alaskad_safepoint_wait_seconds",
		"Barrier initiator wait for safepoint rendezvous.", s.safepointLat)
	r.CounterFunc("alaskad_defrag_drained_bytes_total",
		"Vacated bytes returned after their grace period.",
		func() float64 { return float64(s.drainedBytes.Load()) })
	if s.anch != nil {
		defragCtr := func(name, help string, get func() int64) {
			r.CounterFunc(name, help, func() float64 { return float64(get()) })
		}
		defragCtr("alaskad_defrag_concurrent_passes_total",
			"Pause-free concurrent defrag passes run.",
			func() int64 { return int64(s.anch.Svc.MetricsSnapshot().ConcurrentPasses) })
		defragCtr("alaskad_defrag_barrier_passes_total",
			"Stop-the-world defrag barrier passes run.",
			func() int64 { return int64(s.anch.Svc.MetricsSnapshot().Passes) })
		defragCtr("alaskad_defrag_moved_bytes_total",
			"Object bytes relocated by defragmentation.",
			func() int64 { return int64(s.anch.Svc.MetricsSnapshot().MovedBytes) })
		defragCtr("alaskad_defrag_move_aborts_total",
			"Speculative moves aborted by a racing pin or write.",
			func() int64 { return int64(s.anch.Svc.MetricsSnapshot().MoveAborts) })
		defragCtr("alaskad_defrag_truncated_bytes_total",
			"Sub-heap tail bytes returned to the OS.",
			func() int64 { return int64(s.anch.Svc.MetricsSnapshot().Truncated) })
	}

	// Persistence (pack log). The counter closures read the same atomics
	// the writer goroutine bumps; the fsync histogram is the recorder the
	// writer records into — a scrape costs no I/O and takes no locks the
	// append path contends on.
	if w := s.cfg.WAL; w != nil {
		walCtr := func(name, help string, get func(wal.Stats) int64) {
			r.CounterFunc(name, help, func() float64 { return float64(get(w.Stats())) })
		}
		walCtr("alaskad_wal_appended_records_total", "Records appended to the pack-log ring.",
			func(ws wal.Stats) int64 { return ws.AppendedRecords })
		walCtr("alaskad_wal_appended_bytes_total", "Framed record bytes appended to the ring.",
			func(ws wal.Stats) int64 { return ws.AppendedBytes })
		walCtr("alaskad_wal_dropped_records_total", "Records dropped because the ring was full (forces compaction).",
			func(ws wal.Stats) int64 { return ws.DroppedRecords })
		walCtr("alaskad_wal_fsyncs_total", "Batch fsyncs completed by the writer goroutine.",
			func(ws wal.Stats) int64 { return ws.Fsyncs })
		walCtr("alaskad_wal_io_errors_total", "Append/fsync/compaction I/O failures.",
			func(ws wal.Stats) int64 { return ws.IOErrors })
		walCtr("alaskad_wal_compactions_total", "Live-set compactions completed.",
			func(ws wal.Stats) int64 { return ws.Compactions })
		walCtr("alaskad_wal_replay_records_total", "Records applied by the boot-time replay.",
			func(ws wal.Stats) int64 { return ws.Replay.Records })
		walCtr("alaskad_wal_replay_torn_records_total", "Torn-tail records truncated at replay.",
			func(ws wal.Stats) int64 { return ws.Replay.TornRecords })
		walCtr("alaskad_wal_replay_crc_errors_total", "Records rejected by CRC/frame validation at replay.",
			func(ws wal.Stats) int64 { return ws.Replay.CrcErrors })
		walCtr("alaskad_wal_audit_errors_total", "Invalid records found by the background CRC audit.",
			func(ws wal.Stats) int64 { return ws.AuditErrors })
		walCtr("alaskad_wal_dropped_degraded_total", "Records dropped because the log was degraded (disk refusing writes).",
			func(ws wal.Stats) int64 { return ws.DroppedDegraded })
		walCtr("alaskad_wal_degraded_entries_total", "Transitions into degraded mode.",
			func(ws wal.Stats) int64 { return ws.DegradedEntries })
		walCtr("alaskad_wal_recoveries_total", "Recoveries from degraded back to healthy.",
			func(ws wal.Stats) int64 { return ws.Recoveries })
		r.GaugeFunc("alaskad_wal_degraded", "1 while the pack log is degraded (appends not persisted), else 0.",
			func() float64 {
				if w.Degraded() {
					return 1
				}
				return 0
			})
		r.GaugeFunc("alaskad_wal_disk_bytes", "Total on-disk pack-log bytes (active + sealed segments).",
			func() float64 { return float64(w.Stats().DiskBytes) })
		r.GaugeFunc("alaskad_wal_segments", "Pack-log segment files on disk.",
			func() float64 { return float64(w.Stats().Segments) })
		r.Histogram("alaskad_wal_fsync_seconds",
			"Duration of pack-log batch fsyncs.", w.FsyncLatency())
	}
	return st
}
