package main

import (
	"runtime"
	"strconv"
)

// counters is what alaskad's layers report about themselves through their
// public accessors. The benchmark reads them before and after each of
// alaskad's segments; spans inside the program are a later change.
type counters struct {
	gets, hits, sets, evictions    int64 // kv.ShardedStore.Snapshot
	pins, barriers, movedBytes     int64 // rt.Runtime.Stats
	passes, concPasses, moveAborts int64 // anchorage.Service.MetricsSnapshot
	faults                         int64 // mem.Space.Faults
	walBytes, walFsyncs, walDrops  int64 // wal.Log.Stats
	protoErrors                    int64 // server.Server.StatsSnapshot
	serviceNs, serviceOps          int64 // server.Server.OpLatency, get and set
	mallocs, gcPauseNs, gcCycles   int64 // runtime.MemStats
	// Levels, not counts: the last reading stands.
	liveBytes, rssBytes uint64
	frag                float64
}

func (a *alaskad) counters() counters {
	sn := a.store.Snapshot()
	rs := a.backend.Runtime.Stats()
	am := a.backend.Svc.MetricsSnapshot()
	c := counters{
		gets: sn.Gets, hits: sn.Hits, sets: sn.Sets, evictions: sn.Evictions,
		pins: rs.Pins.Load(), barriers: rs.Barriers.Load(), movedBytes: rs.MovedBytes.Load(),
		passes: am.Passes, concPasses: am.ConcurrentPasses, moveAborts: am.MoveAborts,
		faults:      a.backend.Space.Faults(),
		protoErrors: int64(a.stat("protocol_errors")),
		liveBytes:   sn.Bytes, rssBytes: a.backend.RSS(), frag: a.backend.Svc.Fragmentation(),
	}
	if a.wlog != nil {
		ws := a.wlog.Stats()
		c.walBytes, c.walFsyncs, c.walDrops = ws.AppendedBytes, ws.Fsyncs, ws.DroppedRecords
	}
	for _, op := range []string{"get", "set"} {
		if rec := a.srv.OpLatency(op); rec != nil {
			c.serviceNs += int64(rec.Sum())
			c.serviceOps += rec.Count()
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.gcPauseNs, c.gcCycles = int64(ms.Mallocs), int64(ms.PauseTotalNs), int64(ms.NumGC)
	return c
}

// stat reads one row of the server's `stats` view; 0 if absent.
func (a *alaskad) stat(name string) float64 {
	for _, l := range a.srv.StatsSnapshot() {
		if l.Name == name {
			v, _ := strconv.ParseFloat(l.Value, 64)
			return v
		}
	}
	return 0
}

// addDelta adds after − before to the counts and takes after's levels.
func (c *counters) addDelta(before, after counters) {
	c.gets += after.gets - before.gets
	c.hits += after.hits - before.hits
	c.sets += after.sets - before.sets
	c.evictions += after.evictions - before.evictions
	c.pins += after.pins - before.pins
	c.barriers += after.barriers - before.barriers
	c.movedBytes += after.movedBytes - before.movedBytes
	c.passes += after.passes - before.passes
	c.concPasses += after.concPasses - before.concPasses
	c.moveAborts += after.moveAborts - before.moveAborts
	c.faults += after.faults - before.faults
	c.walBytes += after.walBytes - before.walBytes
	c.walFsyncs += after.walFsyncs - before.walFsyncs
	c.walDrops += after.walDrops - before.walDrops
	c.protoErrors += after.protoErrors - before.protoErrors
	c.serviceNs += after.serviceNs - before.serviceNs
	c.serviceOps += after.serviceOps - before.serviceOps
	c.mallocs += after.mallocs - before.mallocs
	c.gcPauseNs += after.gcPauseNs - before.gcPauseNs
	c.gcCycles += after.gcCycles - before.gcCycles
	c.liveBytes, c.rssBytes, c.frag = after.liveBytes, after.rssBytes, after.frag
}

// endToEnd computes the gated metrics. Timings are ratios to the null
// server over each side's pooled segments: on this machine absolute ops/s,
// p50 and CPU per op drift 20-45% over minutes and the ratios do not.
func endToEnd(cfg config, res *result) map[string]float64 {
	a, n := &res.alaskad, &res.null
	return map[string]float64{
		"lat_p50_vs_null":   ratio(float64(percentile(a.samples, 50)), float64(percentile(n.samples, 50))),
		"hit_ratio":         ratio(float64(a.hits), float64(a.gets)),
		"rss_per_live_byte": median(res.rssPerLive),
		"setup_s":           setupSeconds(a.setups, n.setups, cfg.wl.nullSetupRef),
	}
}

// perLayer computes every per-layer row: the ledger's, the derived ones
// that close the budget, and the per-workload deltas.
func perLayer(cfg config, res *result, led map[string]float64) map[string]float64 {
	m := make(map[string]float64, len(perLayerDefs))
	for k, v := range led {
		m[k] = v
	}
	a, n, l := &res.alaskad, &res.null, &res.layers
	as, ns := a.samples, n.samples
	p50 := float64(percentile(as, 50))
	depth := float64(cfg.wl.depth)
	setShare := float64(cfg.wl.setPct) / 100

	m["kv.handle_tax_ns"] = m["kv.get_ns.anchorage"] - m["kv.get_ns.malloc"]
	m["kv.self_ns"] = m["kv.get_ns.anchorage"] - m["rt.pin_unpin_ns"] - m["mem.read_ns"]
	m["server.service_ns"] = ratio(float64(l.serviceNs), float64(l.serviceOps))
	kvNs := (1-setShare)*m["kv.get_ns.anchorage"] + setShare*m["kv.set_ns.anchorage"]
	m["server.parse_reply_ns"] = m["server.service_ns"] - kvNs
	m["server.wire_ns"] = p50 - depth*m["server.service_ns"]

	m["kv.gets"], m["kv.hits"], m["kv.sets"] = float64(l.gets), float64(l.hits), float64(l.sets)
	m["kv.evictions"], m["kv.live_bytes"] = float64(l.evictions), float64(l.liveBytes)
	m["rt.pins"], m["rt.barriers"], m["rt.moved_bytes"] = float64(l.pins), float64(l.barriers), float64(l.movedBytes)
	m["anchorage.passes"], m["anchorage.concurrent_passes"] = float64(l.passes), float64(l.concPasses)
	m["anchorage.move_aborts"], m["anchorage.frag"] = float64(l.moveAborts), l.frag
	m["mem.rss_bytes"], m["mem.faults"] = float64(l.rssBytes), float64(l.faults)
	m["wal.appended_bytes"], m["wal.fsyncs"] = float64(l.walBytes), float64(l.walFsyncs)
	m["wal.bytes_per_user_byte"] = ratio(float64(l.walBytes), float64(l.sets)*float64(cfg.wl.minSize+cfg.wl.maxSize)/2)
	m["wal.dropped_records"], m["wal.replay_s"] = float64(l.walDrops), median(res.replay)
	m["server.protocol_errors"], m["server.worker_queue_depth_max"] = float64(l.protoErrors), res.queueMax
	m["go.allocs_per_op"] = ratio(float64(l.mallocs), float64(a.verified()))
	m["go.gc_pause_us"] = ratio(float64(l.gcPauseNs), float64(l.gcCycles)) / 1e3

	m["client.ops_per_s"] = ratio(float64(a.verified()), a.wall.Seconds())
	m["null.ops_per_s"] = ratio(float64(n.verified()), n.wall.Seconds())
	m["client.ops_vs_null"] = ratio(m["client.ops_per_s"], m["null.ops_per_s"])
	m["client.lat_p50_us"], m["null.lat_p50_us"] = p50/1e3, float64(percentile(ns, 50))/1e3
	m["client.lat_p90_vs_null"] = ratio(float64(percentile(as, 90)), float64(percentile(ns, 90)))
	m["client.lat_p99_us"] = float64(percentile(as, 99)) / 1e3
	m["client.lat_tail_pct"] = tailPercent(len(as))
	if p := m["client.lat_tail_pct"]; p > 0 {
		m["client.lat_tail_us"] = float64(percentile(as, p)) / 1e3
	}
	m["client.cpu_us_per_op"] = ratio(float64(a.cpu)/1e3, float64(a.verified()))
	m["client.cpu_vs_null"] = ratio(m["client.cpu_us_per_op"], ratio(float64(n.cpu)/1e3, float64(n.verified())))
	m["client.fail_ratio"] = ratio(float64(a.failed), float64(a.attempted))
	m["client.samples"] = float64(len(as))
	m["client.setup_raw_s"], m["null.setup_s"] = median(a.setups), median(n.setups)
	m["trace.overhead_ratio"] = ratio(res.tracedRate, median(a.segRate))
	return m
}
