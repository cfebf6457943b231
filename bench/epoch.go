package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"
)

// A run is 8 epochs, 4 when traced. With one pair of servers per run the
// segments inside a run predicted a 2% spread and the runs showed 5-9%: an
// instance sits a few percent off for its whole life (heap layout after a
// concurrent preload, map seeds, which worker holds which socket). Fresh
// pairs brought that to 2-4%, and make the set-ups setup_s needs the
// measured instances' own.
const (
	epochsUntraced = 8
	epochsTraced   = 4
	segments       = 8  // per epoch, half on each side
	warmDiv        = 96 // warm-up = seconds/96 per side and epoch
	segmentDiv     = 64 // segment = seconds/64
	extraNullBoots = 3  // timed null set-ups on throwaway servers, per epoch
	sampleEvery    = 100 * time.Millisecond
)

// schedule is the order the two sides are driven in within an epoch: ABBA,
// so that a drift linear in time falls equally on both.
func schedule() [segments]bool { // true = alaskad
	var s [segments]bool
	for i := range s {
		s[i] = i%4 == 0 || i%4 == 3
	}
	return s
}

type config struct {
	wl      workload
	seed    uint64
	seconds float64
	trace   bool
	outDir  string
	ledger  ledgerSize
}

func (c config) epochs() int {
	if c.trace {
		return epochsTraced
	}
	return epochsUntraced
}

// side pools what the client saw of one server over all epochs.
type side struct {
	tally                   // samples sorted once the run is over
	cpu, wall time.Duration // over the segments
	segRate   []float64     // verified ops/s, one per segment
	setups    []float64     // s
}

func (s *side) verified() int64 { return s.attempted - s.failed }

type result struct {
	alaskad, null side
	setup         tally     // ops of set-up, warm-up and the traced segment: counted, not timed
	rssPerLive    []float64 // 100 ms samples during alaskad's segments
	layers        counters  // deltas over alaskad's segments (traced runs)
	queueMax      float64
	replay        []float64 // s, persist_mixed's per-epoch replay
	tracedRate    float64   // ops/s of the traced segment
	tracedSelf    []float64 // ns: each traced client.wait_read minus its kv children
	spans         *spanLog
	faults        []string // teardown and replay checks that missed
}

func (r *result) fault(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	fmt.Fprintln(os.Stderr, "bench: FAULT:", msg)
	r.faults = append(r.faults, msg)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pair is one epoch's two servers with their connections.
type pair struct {
	cfg     config
	st      *streams
	alaskad *alaskad
	null    *nullServer
	ac, nc  []*conn
	walDir  string
}

// connect dials conns connections and plays set-up's preload and read-back.
func connect(cfg config, st *streams, addr string) ([]*conn, error) {
	cs := make([]*conn, conns)
	for i := range cs {
		c, err := dial(addr, i, cfg.wl.keys, cfg.wl.maxMemory > 0)
		if err != nil {
			closeAll(cs)
			return nil, err
		}
		cs[i] = c
	}
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[i] = c.play(&st.conn[i].preload); errs[i] == nil {
				errs[i] = c.play(&st.conn[i].readback)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return cs, err
		}
	}
	return cs, nil
}

func closeAll(cs []*conn) {
	for _, c := range cs {
		if c != nil {
			c.close()
		}
	}
}

// drain moves the connections' counts into t, with their samples if timed,
// and resets them.
func drain(cs []*conn, t *tally, timed bool) {
	for _, c := range cs {
		if c != nil {
			t.add(&c.tally, timed)
			c.tally = tally{samples: c.samples[:0]}
		}
	}
}

func verified(cs []*conn) (n int64) {
	for _, c := range cs {
		n += c.attempted - c.failed
	}
	return n
}

// setupAlaskad is the timed set-up: backend, store, log, server, dial,
// preload over the wire, verified read-back of every key.
func (p *pair) setupAlaskad(res *result) error {
	t0 := time.Now()
	a, err := bootAlaskad(p.cfg.wl, p.walDir)
	if err != nil {
		return err
	}
	p.alaskad = a
	p.ac, err = connect(p.cfg, p.st, a.srv.Addr())
	res.alaskad.setups = append(res.alaskad.setups, time.Since(t0).Seconds())
	drain(p.ac, &res.setup, false)
	return err
}

// setupNull is the same preload and read-back against a fresh null server.
func (p *pair) setupNull(res *result, table []byte) (*nullServer, []*conn, error) {
	t0 := time.Now()
	n, err := newNullServer(table, p.cfg.wl.keys, p.cfg.wl.maxSize)
	if err != nil {
		return nil, nil, err
	}
	cs, err := connect(p.cfg, p.st, n.addr())
	res.null.setups = append(res.null.setups, time.Since(t0).Seconds())
	drain(cs, &res.setup, false)
	return n, cs, err
}

// segment drives every connection for d and returns the verified ops, the
// wall time and the process's CPU time it took. tick, if not nil, runs
// every sampleEvery meanwhile.
func segment(cs []*conn, st *streams, d time.Duration, tick func()) (ops int64, wall, cpu time.Duration) {
	before := verified(cs)
	stop := make(chan struct{})
	var sampler sync.WaitGroup
	if tick != nil {
		sampler.Add(1)
		go func() {
			defer sampler.Done()
			t := time.NewTicker(sampleEvery)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					tick()
				case <-stop:
					tick()
					return
				}
			}
		}()
	}
	cpu0, t0 := cpuTime(), time.Now()
	until := t0.Add(d)
	var wg sync.WaitGroup
	for i, c := range cs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.drive(&st.conn[i].main, until)
		}()
	}
	wg.Wait()
	wall, cpu = time.Since(t0), cpuTime()-cpu0
	close(stop)
	sampler.Wait()
	return verified(cs) - before, wall, cpu
}

// measure is one timed segment on one side.
func (s *side) measure(cs []*conn, st *streams, d time.Duration, tick func()) {
	ops, wall, cpu := segment(cs, st, d, tick)
	s.wall += wall
	s.cpu += cpu
	s.segRate = append(s.segRate, float64(ops)/wall.Seconds())
}

// runEpoch sets a fresh pair up, measures it and tears it down. An error
// means the epoch could not be measured; what it did is still counted.
func runEpoch(ctx context.Context, cfg config, st *streams, table []byte, e int, res *result) (err error) {
	goroutines := runtime.NumGoroutine()
	p := &pair{cfg: cfg, st: st}
	if cfg.wl.persist {
		p.walDir = filepath.Join(cfg.outDir, fmt.Sprintf("wal.%d.%d", os.Getpid(), e))
		if err := os.MkdirAll(p.walDir, 0o755); err != nil {
			return err
		}
	}
	defer func() {
		p.teardown(res, err == nil && ctx.Err() == nil)
		runtime.GC()
		deadline := time.Now().Add(2 * time.Second)
		for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > goroutines {
			res.fault("epoch %d: %d goroutines before, %d after teardown", e, goroutines, n)
		}
	}()

	// Set-ups, alternating which server goes first, then the throwaways.
	first, second := p.setupAlaskad, func(res *result) (err error) {
		p.null, p.nc, err = p.setupNull(res, table)
		return err
	}
	if e%2 == 1 {
		first, second = second, first
	}
	if err := first(res); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	if err := second(res); err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	for i := 0; i < extraNullBoots && ctx.Err() == nil; i++ {
		n, cs, err := p.setupNull(res, table)
		closeAll(cs)
		if n != nil {
			n.shutdown()
		}
		if err != nil {
			return fmt.Errorf("null set-up: %w", err)
		}
	}

	warm := time.Duration(cfg.seconds / warmDiv * float64(time.Second))
	seg := time.Duration(cfg.seconds / segmentDiv * float64(time.Second))
	if ctx.Err() != nil {
		return nil
	}
	// Sample buffers with room for 50 000 round trips a second, several
	// times what one connection has done, so that no append grows inside a
	// timing; allocated here so that no set-up pays for them.
	perSide := cfg.seconds / 2 / float64(cfg.epochs())
	for _, c := range append(append([]*conn(nil), p.ac...), p.nc...) {
		c.samples = make([]int64, 0, int(perSide*50000)+1024)
	}
	segment(p.ac, st, warm, nil)
	segment(p.nc, st, warm, nil)
	drain(p.ac, &res.setup, false)
	drain(p.nc, &res.setup, false)

	for _, onAlaskad := range schedule() {
		if ctx.Err() != nil {
			return nil
		}
		if !onAlaskad {
			res.null.measure(p.nc, st, seg, nil)
			continue
		}
		var before counters
		if cfg.trace {
			before = p.alaskad.counters()
		}
		res.alaskad.measure(p.ac, st, seg, func() { p.sample(res) })
		if cfg.trace {
			res.layers.addDelta(before, p.alaskad.counters())
		}
	}
	drain(p.ac, &res.alaskad.tally, true)
	drain(p.nc, &res.null.tally, true)
	if cfg.trace && e == cfg.epochs()-1 && ctx.Err() == nil {
		p.tracedSegment(res, seg)
	}
	return nil
}

// sample takes the 100 ms readings; it runs beside alaskad's segments.
func (p *pair) sample(res *result) {
	if live := p.alaskad.store.Snapshot().Bytes; live > 0 {
		res.rssPerLive = append(res.rssPerLive, float64(p.alaskad.backend.RSS())/float64(live))
	}
	if p.cfg.trace {
		res.queueMax = max(res.queueMax, p.alaskad.stat("worker_queue_depth"))
	}
}

// teardown stops both servers and checks that nothing of the epoch is left:
// Shutdown and Serve returned, both ports refuse a dial, the null server's
// goroutines exited, the log directory is gone. On persist_mixed it first
// replays the log alaskad left and checks every key (if the epoch was
// measured to its end).
func (p *pair) teardown(res *result, complete bool) {
	closeAll(p.ac)
	closeAll(p.nc)
	drain(p.ac, &res.setup, false) // what an epoch cut short had counted
	drain(p.nc, &res.setup, false)
	if p.alaskad != nil {
		if err := p.alaskad.shutdown(); err != nil {
			res.fault("alaskad shutdown: %v", err)
		}
		if p.alaskad.wlog != nil && complete {
			ws := p.alaskad.wlog.Stats()
			dropped := ws.DroppedRecords
			fmt.Fprintf(os.Stderr, "bench: log: %d records, %d dropped, %d compactions, %d rotations, %d fsyncs\n", ws.AppendedRecords, dropped, ws.Compactions, ws.Rotations, ws.Fsyncs)
			took, err := checkReplay(p.cfg.wl, p.walDir, p.st, p.ac, dropped)
			res.replay = append(res.replay, took.Seconds())
			if err != nil {
				res.fault("%v", err)
			}
		}
	}
	if p.null != nil {
		addr := p.null.addr()
		p.null.shutdown()
		if err := refuses(addr); err != nil {
			res.fault("null server: %v", err)
		}
	}
	if p.walDir != "" {
		if err := os.RemoveAll(p.walDir); err != nil {
			res.fault("remove %s: %v", p.walDir, err)
		} else if _, err := os.Stat(p.walDir); !os.IsNotExist(err) {
			res.fault("%s is still there", p.walDir)
		}
	}
}

// run measures one workload for cfg.seconds and returns what it saw.
func run(ctx context.Context, cfg config) (*result, error) {
	res := &result{}
	st := render(cfg.wl, cfg.seed)
	fmt.Fprintf(os.Stderr, "bench: %s seed %d: stream fingerprint %016x\n", cfg.wl.name, cfg.seed, st.fingerprint())
	// The null servers' table, faulted in once so that no null set-up pays
	// for fresh pages and the next does not.
	table := make([]byte, cfg.wl.keys*cfg.wl.maxSize)
	for i := 0; i < len(table); i += 4096 {
		table[i] = 1
	}
	for e := 0; e < cfg.epochs() && ctx.Err() == nil; e++ {
		if err := runEpoch(ctx, cfg, st, table, e, res); err != nil {
			res.fault("epoch %d: %v", e, err)
		}
	}
	// Sorted once, here: every percentile is an order statistic of these.
	slices.Sort(res.alaskad.samples)
	slices.Sort(res.null.samples)
	return res, ctx.Err()
}

// benchmark is one invocation: the ledger first if traced, the epochs, then
// every metric by name and the result line.
func benchmark(ctx context.Context, cfg config, w io.Writer) error {
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return err
	}
	var led map[string]float64
	if cfg.trace {
		var err error
		if led, err = ledger(cfg.ledger, cfg.seed, cfg.outDir); err != nil {
			return err
		}
	}
	res, err := run(ctx, cfg)
	if err != nil {
		return err
	}
	a, n := &res.alaskad, &res.null
	fmt.Fprintf(os.Stderr, "bench: alaskad p50 %d ns, %.0f ops/s, set-up %.4f s; null p50 %d ns, %.0f ops/s, set-up %.4f s; %d + %d samples\n",
		percentile(a.samples, 50), ratio(float64(a.verified()), a.wall.Seconds()), median(a.setups),
		percentile(n.samples, 50), ratio(float64(n.verified()), n.wall.Seconds()), median(n.setups),
		len(a.samples), len(n.samples))
	attempted := res.setup.attempted + res.alaskad.attempted + res.null.attempted
	failed := res.setup.failed + res.alaskad.failed + res.null.failed
	correct := failed == 0 && len(res.faults) == 0
	if !cfg.trace {
		return emit(w, endToEndDefs, endToEnd(cfg, res), correct, attempted, failed)
	}
	m := perLayer(cfg, res, led)
	if res.spans == nil {
		return fmt.Errorf("no epoch reached the traced segment")
	}
	if err := res.spans.write(cfg.outDir, cfg.wl.name); err != nil {
		return err
	}
	// The budget closes by construction; the traced pass is its check.
	depth := float64(cfg.wl.depth)
	kvNs := m["server.service_ns"] - m["server.parse_reply_ns"]
	fmt.Fprintf(w, "budget: p50 %.0f ns = %g x (kv %.0f + server.parse_reply %.0f) + server.wire %.0f = %.0f ns\n",
		m["client.lat_p50_us"]*1e3, depth, kvNs, m["server.parse_reply_ns"], m["server.wire_ns"],
		depth*(kvNs+m["server.parse_reply_ns"])+m["server.wire_ns"])
	fmt.Fprintf(w, "traced: client.wait_read self time %.0f ns + client.write %.0f ns (medians of %d round trips) beside server.wire + %g x server.parse_reply = %.0f ns\n",
		median(res.tracedSelf), res.spans.medianOf("client.write"), len(res.tracedSelf), depth, m["server.wire_ns"]+depth*m["server.parse_reply_ns"])
	return emit(w, perLayerDefs, m, correct, attempted, failed)
}
