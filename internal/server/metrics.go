package server

import (
	"bufio"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"alaska/internal/anchorage"
	"alaska/internal/kv"
	"alaska/internal/metrics"
	"alaska/internal/stats"
	"alaska/internal/wal"
)

// statView is one reading of everything the stat table renders from, taken
// once per `stats`, scrape or reset: the latency stripes folded in, then
// one store Snapshot, one poller reading, one defrag MetricsSnapshot and
// one WAL Stats. Rows read the view, the server's own atomics and the
// folded recorders; none takes a lock of its own.
type statView struct {
	uptime                 float64 // seconds
	snap                   kv.StatsSnapshot
	parked, active, queued int64
	defrag                 anchorage.Metrics // zero off Anchorage
	wal                    wal.Stats         // zero without a pack log
}

func (s *Server) readStats(v *statView) {
	s.foldLatency()
	v.uptime = time.Since(s.start).Seconds()
	v.snap = s.store.Snapshot()
	v.parked, v.active, v.queued = s.pollerGauges()
	if s.anch != nil {
		v.defrag = s.anch.Svc.MetricsSnapshot()
	}
	if s.cfg.WAL != nil {
		v.wal = s.cfg.WAL.Stats()
	}
}

// statRow is one quantity of the observability plane: its `stats` row, its
// /metrics series, or both, from one reading.
type statRow struct {
	stat   string // `stats` row name; "" = /metrics only
	metric string // /metrics family; "" = `stats` only
	labels string // the family child's label body, e.g. `op="get"`
	kind   metrics.Kind
	help   string // the family's; its later children leave it empty
	why    string // why the row is on one surface only
	// reset rows are counters that `stats reset` rebases: `stats` shows
	// the value less base, /metrics the raw, monotonic count.
	reset bool
	base  atomic.Int64
	when  func(*statView) bool // nil = always present
	// Exactly one reading: an integer, a float (`stats` prints prec
	// decimals), a string, or a histogram.
	i    func(*statView) int64
	f    func(*statView) float64
	prec int
	s    func(*statView) string
	h    *stats.LatencyRecorder
}

const (
	counter   = metrics.KindCounter
	gauge     = metrics.KindGauge
	histogram = metrics.KindHistogram
)

// us converts a duration to the microseconds `stats` prints latencies in.
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// statTable is the server's one declaration of every `stats` row and
// /metrics series, in `stats` order (memcached clients parse the rows by
// name). Anchorage and pack-log rows exist only on servers that have one.
// `stats reset` rebases the reset rows and resets the latency histograms
// (foldMu serializes that against the fold); the WAL and defrag counters
// and slow_ops survive it, as do gauges.
func (s *Server) statTable() []statRow {
	const storeOps = "alaskad_store_ops_total"
	rows := []statRow{
		{stat: "version", why: "a string; /metrics labels alaskad_info with it", s: func(*statView) string { return s.cfg.Version }},
		{metric: "alaskad_info", kind: gauge, help: "Build/runtime identity; value is always 1.", why: "identity as labels; `stats` prints version and backend as rows",
			labels: `version="` + s.cfg.Version + `",backend="` + s.store.Backend().Name() + `"`, i: func(*statView) int64 { return 1 }},
		{stat: "backend", why: "a string; /metrics labels alaskad_info with it", s: func(*statView) string { return s.store.Backend().Name() }},
		{stat: "uptime_s", metric: "alaskad_uptime_seconds", kind: gauge, help: "Seconds since the server started serving.",
			f: func(v *statView) float64 { return v.uptime }, prec: 1},
		{stat: "curr_connections", metric: "alaskad_connections", kind: gauge, help: "Currently open client connections.",
			i: func(*statView) int64 { return s.currConns.Load() }},
		{stat: "total_connections", metric: "alaskad_connections_total", kind: counter, help: "Client connections ever accepted.", reset: true,
			i: func(*statView) int64 { return s.totalConns.Load() }},
		{stat: "max_connections", metric: "alaskad_max_connections", kind: gauge, help: "Configured -max-conns cap (0 = unlimited).",
			i: func(*statView) int64 { return int64(s.cfg.MaxConns) }},
		{stat: "listen_disabled_num", metric: "alaskad_listen_disabled_total", kind: counter, help: "Accepts deferred at the -max-conns cap.", reset: true,
			i: func(*statView) int64 { return s.listenDisabled.Load() }},
		{stat: "accept_errors", metric: "alaskad_accept_errors_total", kind: counter, help: "Transient accept failures.", reset: true,
			i: func(*statView) int64 { return s.acceptErrors.Load() }},
		{stat: "idle_kicks", metric: "alaskad_idle_kicks_total", kind: counter, help: "Connections reaped for idling past -idle-timeout.", reset: true,
			i: func(*statView) int64 { return s.idleKicks.Load() }},
		{stat: "slow_client_kicks", metric: "alaskad_slow_client_kicks_total", kind: counter, help: "Connections dropped for not draining replies.", reset: true,
			i: func(*statView) int64 { return s.slowKicks.Load() }},
		{stat: "conn_model", why: "a string naming the transport", s: func(*statView) string { return s.ConnModel() }},
		{stat: "conns_parked", metric: "alaskad_conns_parked", kind: gauge, help: "Connections parked in the readiness poller (event model).",
			i: func(v *statView) int64 { return v.parked }},
		{stat: "conns_active", metric: "alaskad_conns_active", kind: gauge, help: "Connections queued for or running on a worker (event model).",
			i: func(v *statView) int64 { return v.active }},
		{stat: "worker_queue_depth", metric: "alaskad_worker_queue_depth", kind: gauge, help: "Ready connections awaiting a free worker (event model).",
			i: func(v *statView) int64 { return v.queued }},
		{stat: "cmd_flush", metric: "alaskad_flush_all_total", kind: counter, help: "flush_all commands executed.", reset: true,
			i: func(*statView) int64 { return s.cmdFlush.Load() }},
		{stat: "cmd_get", why: `get_hits + get_misses: /metrics has both as alaskad_store_ops_total{op="get"}`, reset: true,
			i: func(v *statView) int64 { return v.snap.Gets }},
		{stat: "cmd_set", metric: storeOps, labels: `op="set",outcome="stored"`, kind: counter, help: "Store operations by opcode and outcome.", reset: true,
			i: func(v *statView) int64 { return v.snap.Sets }},
		{stat: "get_hits", metric: storeOps, labels: `op="get",outcome="hit"`, reset: true, i: func(v *statView) int64 { return v.snap.Hits }},
		{stat: "get_misses", metric: storeOps, labels: `op="get",outcome="miss"`, reset: true, i: func(v *statView) int64 { return v.snap.Misses }},
		{stat: "delete_hits", metric: storeOps, labels: `op="delete",outcome="hit"`, reset: true,
			i: func(v *statView) int64 { return v.snap.DeleteHits }},
		{stat: "delete_misses", metric: storeOps, labels: `op="delete",outcome="miss"`, reset: true,
			i: func(v *statView) int64 { return v.snap.DeleteMisses }},
		{stat: "cas_hits", metric: storeOps, labels: `op="cas",outcome="hit"`, reset: true, i: func(v *statView) int64 { return v.snap.CasHits }},
		{stat: "cas_badval", metric: storeOps, labels: `op="cas",outcome="badval"`, reset: true,
			i: func(v *statView) int64 { return v.snap.CasBadval }},
		{stat: "cas_misses", metric: storeOps, labels: `op="cas",outcome="miss"`, reset: true,
			i: func(v *statView) int64 { return v.snap.CasMisses }},
		{stat: "incr_hits", metric: storeOps, labels: `op="incr",outcome="hit"`, reset: true, i: func(v *statView) int64 { return v.snap.IncrHits }},
		{stat: "incr_misses", metric: storeOps, labels: `op="incr",outcome="miss"`, reset: true,
			i: func(v *statView) int64 { return v.snap.IncrMisses }},
		{stat: "decr_hits", metric: storeOps, labels: `op="decr",outcome="hit"`, reset: true, i: func(v *statView) int64 { return v.snap.DecrHits }},
		{stat: "decr_misses", metric: storeOps, labels: `op="decr",outcome="miss"`, reset: true,
			i: func(v *statView) int64 { return v.snap.DecrMisses }},
		{stat: "touch_hits", metric: storeOps, labels: `op="touch",outcome="hit"`, reset: true,
			i: func(v *statView) int64 { return v.snap.TouchHits }},
		{stat: "touch_misses", metric: storeOps, labels: `op="touch",outcome="miss"`, reset: true,
			i: func(v *statView) int64 { return v.snap.TouchMisses }},
		{stat: "expired", metric: "alaskad_expired_total", kind: counter, help: "Entries reclaimed past their deadline.", reset: true,
			i: func(v *statView) int64 { return v.snap.Expired }},
		{stat: "expiry_sweeps", metric: "alaskad_expiry_sweeps_total", kind: counter, help: "Maintenance expiry-sweep rounds.", reset: true,
			i: func(v *statView) int64 { return v.snap.ExpirySweeps }},
		{stat: "evictions", metric: "alaskad_evictions_total", kind: counter, help: "Live entries evicted under memory pressure.", reset: true,
			i: func(v *statView) int64 { return v.snap.Evictions }},
		{stat: "reclaimed", metric: "alaskad_reclaimed_total", kind: counter, help: "Dead entries removed by the eviction walk.", reset: true,
			i: func(v *statView) int64 { return v.snap.Reclaimed }},
		{stat: "evicted_unfetched", metric: "alaskad_evicted_unfetched_total", kind: counter, help: "Evicted entries never fetched after storing.", reset: true,
			i: func(v *statView) int64 { return v.snap.EvictedUnfetched }},
		{stat: "curr_items", metric: "alaskad_items", kind: gauge, help: "Live items.", i: func(v *statView) int64 { return int64(v.snap.Keys) }},
		// bytes is memcached's charged item total (value + key + per-item
		// overhead) — what limit_maxbytes caps; used_bytes is the
		// allocator-level live-byte count underneath it.
		{stat: "bytes", metric: "alaskad_item_bytes", kind: gauge, help: "Charged item bytes (value + key + overhead).",
			i: func(v *statView) int64 { return int64(v.snap.Bytes) }},
		{stat: "limit_maxbytes", metric: "alaskad_limit_bytes", kind: gauge, help: "Configured memory ceiling (0 = unlimited).",
			i: func(v *statView) int64 { return int64(v.snap.LimitMaxbytes) }},
		{stat: "used_bytes", metric: "alaskad_used_bytes", kind: gauge, help: "Allocator-level live bytes.",
			i: func(v *statView) int64 { return int64(v.snap.Used) }},
		{stat: "rss_bytes", metric: "alaskad_rss_bytes", kind: gauge, help: "Resident set of the value heap.",
			i: func(v *statView) int64 { return int64(v.snap.RSS) }},
		{stat: "protocol_errors", metric: "alaskad_protocol_errors_total", kind: counter, help: "Commands answered with a protocol error.", reset: true,
			i: func(*statView) int64 { return s.protocolErrors.Load() }},
		{stat: "bytes_read", metric: "alaskad_bytes_read_total", kind: counter, help: "Bytes read from client sockets.", reset: true,
			i: func(*statView) int64 { return s.bytesRead.Load() }},
		{stat: "bytes_written", metric: "alaskad_bytes_written_total", kind: counter, help: "Bytes written to client sockets.", reset: true,
			i: func(*statView) int64 { return s.bytesWritten.Load() }},
		{stat: "slow_ops", metric: "alaskad_slow_ops_total", kind: counter, help: "Commands slower than -slow-op-threshold.",
			i: func(*statView) int64 { return int64(s.slowOpTotal()) }},
		{metric: "alaskad_command_latency_seconds", kind: histogram, help: "Command latency across all opcodes: the sum of the alaskad_op_latency_seconds series, same interval.",
			why: "a histogram; `stats` prints its mean and percentiles", h: s.lat},
		{stat: "latency_mean_us", why: "a mean of alaskad_command_latency_seconds", f: func(*statView) float64 { return us(s.lat.Mean()) }, prec: 1},
		{stat: "latency_p50_us", why: "a percentile of alaskad_command_latency_seconds",
			f: func(*statView) float64 { return us(s.lat.Percentile(50)) }, prec: 1},
		{stat: "latency_p99_us", why: "a percentile of alaskad_command_latency_seconds",
			f: func(*statView) float64 { return us(s.lat.Percentile(99)) }, prec: 1},
		{stat: "latency_p999_us", why: "a percentile of alaskad_command_latency_seconds",
			f: func(*statView) float64 { return us(s.lat.Percentile(99.9)) }, prec: 1},
		{stat: "fragmentation", metric: "alaskad_fragmentation", kind: gauge, help: "Resident set of the value heap over allocator-level live bytes.",
			when: func(v *statView) bool { return v.snap.Used > 0 },
			f:    func(v *statView) float64 { return float64(v.snap.RSS) / float64(v.snap.Used) }, prec: 3},
		// The pass histogram exists, empty, on every backend, so dashboards
		// need no backend-conditional queries.
		{metric: "alaskad_defrag_pass_duration_seconds", kind: histogram, help: "Duration of pause-free concurrent defrag passes.",
			why: "a histogram; `stats` prints its p99 on Anchorage", h: s.passLat},
	}
	for i, rec := range s.perOp {
		rows = append(rows, statRow{metric: "alaskad_op_latency_seconds", labels: `op="` + cmdNames[i] + `"`, kind: histogram,
			help: "Command latency by opcode: server-side time per command, reply generation included; commands pipelined in one burst each get the burst's time divided by its command count.",
			why:  "a histogram per opcode", h: rec})
	}
	if s.anch != nil {
		rows = append(rows, []statRow{
			{stat: "defrag_concurrent_passes", metric: "alaskad_defrag_concurrent_passes_total", kind: counter, help: "Pause-free concurrent defrag passes run.",
				i: func(v *statView) int64 { return v.defrag.ConcurrentPasses }},
			{stat: "defrag_barrier_passes", metric: "alaskad_defrag_barrier_passes_total", kind: counter, help: "Stop-the-world defrag barrier passes run.",
				i: func(v *statView) int64 { return v.defrag.Passes }},
			{stat: "defrag_moved_bytes", metric: "alaskad_defrag_moved_bytes_total", kind: counter, help: "Object bytes relocated by defragmentation.",
				i: func(v *statView) int64 { return v.defrag.MovedBytes }},
			{stat: "defrag_move_aborts", metric: "alaskad_defrag_move_aborts_total", kind: counter, help: "Speculative moves aborted by a racing pin or write.",
				i: func(v *statView) int64 { return v.defrag.MoveAborts }},
			{stat: "defrag_truncated_bytes", metric: "alaskad_defrag_truncated_bytes_total", kind: counter, help: "Sub-heap tail bytes returned to the OS.",
				i: func(v *statView) int64 { return v.defrag.Truncated }},
			{stat: "defrag_deferred_blocks", metric: "alaskad_defrag_deferred_blocks", kind: gauge, help: "Vacated blocks awaiting their grace period before reuse.",
				i: func(v *statView) int64 { return int64(v.defrag.DeferredBlocks) }},
			{stat: "defrag_pass_p99_us", why: "a percentile of alaskad_defrag_pass_duration_seconds",
				f: func(*statView) float64 { return us(s.passLat.Percentile(99)) }, prec: 1},
			{stat: "heap_fragmentation", metric: "alaskad_heap_fragmentation", kind: gauge, help: "Heap fragmentation ratio: sub-heap extent over live bytes.",
				f: func(v *statView) float64 { return v.defrag.Fragmentation }, prec: 3},
		}...)
	}
	if w := s.cfg.WAL; w != nil {
		rows = append(rows, []statRow{
			{stat: "wal_appended_records", metric: "alaskad_wal_appended_records_total", kind: counter, help: "Records appended to the pack-log ring.",
				i: func(v *statView) int64 { return v.wal.AppendedRecords }},
			{stat: "wal_appended_bytes", metric: "alaskad_wal_appended_bytes_total", kind: counter, help: "Framed record bytes appended to the ring.",
				i: func(v *statView) int64 { return v.wal.AppendedBytes }},
			{stat: "wal_dropped_records", metric: "alaskad_wal_dropped_records_total", kind: counter, help: "Records dropped because the ring was full (forces compaction).",
				i: func(v *statView) int64 { return v.wal.DroppedRecords }},
			{stat: "wal_state", why: "a string; alaskad_wal_degraded is its 0/1 form", s: func(v *statView) string { return v.wal.State }},
			{metric: "alaskad_wal_degraded", kind: gauge, help: "1 while the pack log is degraded (appends not persisted), else 0.", why: "wal_state as a number",
				i: func(v *statView) int64 {
					if v.wal.State == "degraded" {
						return 1
					}
					return 0
				}},
			{stat: "wal_dropped_degraded", metric: "alaskad_wal_dropped_degraded_total", kind: counter, help: "Records dropped because the log was degraded (disk refusing writes).",
				i: func(v *statView) int64 { return v.wal.DroppedDegraded }},
			{stat: "wal_degraded_entries", metric: "alaskad_wal_degraded_entries_total", kind: counter, help: "Transitions into degraded mode.",
				i: func(v *statView) int64 { return v.wal.DegradedEntries }},
			{stat: "wal_recoveries", metric: "alaskad_wal_recoveries_total", kind: counter, help: "Recoveries from degraded back to healthy.",
				i: func(v *statView) int64 { return v.wal.Recoveries }},
			{stat: "wal_fsyncs", metric: "alaskad_wal_fsyncs_total", kind: counter, help: "Batch fsyncs completed by the writer goroutine.",
				i: func(v *statView) int64 { return v.wal.Fsyncs }},
			{stat: "wal_fsync_p99_us", why: "a percentile of alaskad_wal_fsync_seconds",
				f: func(*statView) float64 { return us(w.FsyncLatency().Percentile(99)) }, prec: 1},
			{metric: "alaskad_wal_fsync_seconds", kind: histogram, help: "Duration of pack-log batch fsyncs.",
				why: "a histogram; `stats` prints its p99", h: w.FsyncLatency()},
			{stat: "wal_io_errors", metric: "alaskad_wal_io_errors_total", kind: counter, help: "Append/fsync/compaction I/O failures.",
				i: func(v *statView) int64 { return v.wal.IOErrors }},
			{stat: "wal_disk_bytes", metric: "alaskad_wal_disk_bytes", kind: gauge, help: "Total on-disk pack-log bytes (active + sealed segments).",
				i: func(v *statView) int64 { return v.wal.DiskBytes }},
			{stat: "wal_segments", metric: "alaskad_wal_segments", kind: gauge, help: "Pack-log segment files on disk.",
				i: func(v *statView) int64 { return int64(v.wal.Segments) }},
			{stat: "wal_rotations", metric: "alaskad_wal_rotations_total", kind: counter, help: "Active-segment rotations.",
				i: func(v *statView) int64 { return v.wal.Rotations }},
			{stat: "wal_compactions", metric: "alaskad_wal_compactions_total", kind: counter, help: "Live-set compactions completed.",
				i: func(v *statView) int64 { return v.wal.Compactions }},
			{stat: "wal_snapshot_records", metric: "alaskad_wal_snapshot_records", kind: gauge, help: "Records in the last compaction's snapshot.",
				i: func(v *statView) int64 { return v.wal.SnapshotRecords }},
			{stat: "wal_replay_records", metric: "alaskad_wal_replay_records_total", kind: counter, help: "Records applied by the boot-time replay.",
				i: func(v *statView) int64 { return v.wal.Replay.Records }},
			{stat: "wal_replay_bytes", metric: "alaskad_wal_replay_bytes_total", kind: counter, help: "Valid record bytes read by the boot-time replay.",
				i: func(v *statView) int64 { return v.wal.Replay.Bytes }},
			{stat: "wal_replay_skipped_dead", metric: "alaskad_wal_replay_skipped_dead_total", kind: counter, help: "Replayed set records already past their deadline or flush epoch.",
				i: func(v *statView) int64 { return v.wal.Replay.SkippedDead }},
			{stat: "wal_replay_torn_records", metric: "alaskad_wal_replay_torn_records_total", kind: counter, help: "Torn-tail records truncated at replay.",
				i: func(v *statView) int64 { return v.wal.Replay.TornRecords }},
			{stat: "wal_replay_crc_errors", metric: "alaskad_wal_replay_crc_errors_total", kind: counter, help: "Records rejected by CRC/frame validation at replay.",
				i: func(v *statView) int64 { return v.wal.Replay.CrcErrors }},
			{stat: "wal_audit_runs", metric: "alaskad_wal_audit_runs_total", kind: counter, help: "Background CRC audit passes completed.",
				i: func(v *statView) int64 { return v.wal.AuditRuns }},
			{stat: "wal_audit_records", metric: "alaskad_wal_audit_records_total", kind: counter, help: "Records verified by the background CRC audit.",
				i: func(v *statView) int64 { return v.wal.AuditRecords }},
			{stat: "wal_audit_errors", metric: "alaskad_wal_audit_errors_total", kind: counter, help: "Invalid records found by the background CRC audit.",
				i: func(v *statView) int64 { return v.wal.AuditErrors }},
		}...)
	}
	return rows
}

// familyOrder returns the rows /metrics renders, each family's children
// together — families in table order, children sorted by labels — with
// every child carrying its family's kind and help.
func familyOrder(rows []statRow) []*statRow {
	var out []*statRow
	first := map[string]int{} // family -> its first row's index in out
	for i := range rows {
		r := &rows[i]
		if r.metric == "" {
			continue
		}
		if f, ok := first[r.metric]; ok {
			r.kind, r.help = out[f].kind, out[f].help
		} else {
			first[r.metric] = len(out)
		}
		out = append(out, r)
	}
	sort.SliceStable(out, func(a, b int) bool {
		fa, fb := first[out[a].metric], first[out[b].metric]
		return fa < fb || fa == fb && out[a].labels < out[b].labels
	})
	return out
}

// appendStats appends the `stats` reply body: one STAT line per present
// row, reset rows less their base. Only strconv — a `stats` command
// allocates nothing once b has grown.
func (s *Server) appendStats(b []byte, v *statView) []byte {
	for i := range s.rows {
		r := &s.rows[i]
		if r.stat == "" || (r.when != nil && !r.when(v)) {
			continue
		}
		b = append(append(append(b, "STAT "...), r.stat...), ' ')
		switch {
		case r.s != nil:
			b = append(b, r.s(v)...)
		case r.f != nil:
			b = strconv.AppendFloat(b, r.f(v), 'f', r.prec, 64)
		default:
			b = strconv.AppendInt(b, r.i(v)-r.base.Load(), 10)
		}
		b = append(b, crlf...)
	}
	return b
}

// StatsSnapshot is the `stats` reply as name/value pairs, in order.
func (s *Server) StatsSnapshot() []struct{ Name, Value string } {
	var v statView
	s.readStats(&v)
	var out []struct{ Name, Value string }
	for _, l := range strings.Split(string(s.appendStats(nil, &v)), crlf) {
		if name, value, ok := strings.Cut(strings.TrimPrefix(l, "STAT "), " "); ok {
			out = append(out, struct{ Name, Value string }{name, value})
		}
	}
	return out
}

// WriteMetrics renders every present row with a family in Prometheus text
// exposition, from one reading. Counters are raw: `stats reset` never
// moves them backwards.
func (s *Server) WriteMetrics(w io.Writer) error {
	var v statView
	s.readStats(&v)
	bw := bufio.NewWriter(w)
	fam := ""
	for _, r := range s.metricRows {
		if r.when != nil && !r.when(&v) {
			continue
		}
		if r.metric != fam {
			fam = r.metric
			metrics.WriteHeader(bw, r.metric, r.kind, r.help)
		}
		switch {
		case r.h != nil:
			metrics.WriteHistogram(bw, r.metric, r.labels, r.h)
		case r.f != nil:
			metrics.WriteSample(bw, r.metric, r.labels, r.f(&v))
		default:
			metrics.WriteSample(bw, r.metric, r.labels, float64(r.i(&v)))
		}
	}
	return bw.Flush()
}

// ResetStats implements `stats reset`: the reset rows read zero on `stats`
// from here on, and the command-latency and defrag-pass histograms empty,
// while gauges (live connections, items, memory, the ceiling), protocol
// invariants (the cas unique counter, connection ids) and /metrics'
// counters are untouched — memcached's split for `stats`, monotonic
// counters for scrapers.
func (s *Server) ResetStats() {
	var v statView
	s.readStats(&v)
	for i := range s.rows {
		if r := &s.rows[i]; r.reset {
			r.base.Store(r.i(&v))
		}
	}
	// Fold first, or observations still in a stripe from before the reset
	// would reappear after it.
	s.foldMu.Lock()
	s.foldLatencyLocked()
	s.lat.Reset()
	for _, r := range s.perOp {
		r.Reset()
	}
	s.foldMu.Unlock()
	s.passLat.Reset()
}
