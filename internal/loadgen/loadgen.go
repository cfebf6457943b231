// Package loadgen drives an alaskad server (or any memcached-ASCII-
// protocol server) over real TCP connections: YCSB mixes, a read-modify-
// write/TTL mix that hammers what a concurrent mover touches (incr, append,
// gets+cas on expiring values), or a cache-fill churn. Each connection has
// its own goroutine and scrambled-zipfian generator, as in the paper's
// Figure 12 harness. Closed loop by default, so a slowing server sheds
// offered load; Rate switches to open-loop fixed arrivals with latency
// measured from the *intended* start (coordinated-omission-corrected).
// alaska-loadgen binds a flag to each Config field and prints the Report;
// alaskad's smoke tests call Run and assert on the Report.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"maps"
	"math"
	"math/rand"
	"net"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"alaska/internal/rlimit"
	"alaska/internal/server"
	"alaska/internal/stats"
	"alaska/internal/ycsb"
)

// Config is one run; alaska-loadgen binds one flag to each field.
type Config struct {
	Addr          string        // server address
	Workload      string        // one of Workloads (case-insensitive; "a" = "ycsb-a")
	TTL           int64         // exptime (seconds) on every stored value; 0 = no expiry
	Connections   int           // concurrent worker connections
	Records       int           // preloaded record count (churn: the keyspace)
	ValueSize     int           // value payload bytes
	ValueJitter   float64       // shrink update sizes by up to this fraction, in [0,1]
	Duration      time.Duration // measured run length
	Warmup        time.Duration // ramp before the measured window
	Rate          float64       // open-loop ops/s across all connections; 0 = closed loop
	LatencyCSV    string        // write the per-second series here; "" = none
	Hold          int           // idle connections opened before the run
	NoLoad        bool          // skip the load phase
	ClientTimeout time.Duration // per-op deadline plus reconnect; 0 = first error ends the worker
	Seed          int64         // base RNG seed
}

// Report is what one run measured. Hits and Misses count reads whose
// op is in Ops; Errors counts every failed op, warmup included.
type Report struct {
	Config
	Ops, Errors, Hits, Misses int64
	Load                      time.Duration // 0 when the load phase was skipped
	Latency                   *stats.LatencyRecorder
	PerSecond                 []*stats.LatencyRecorder // per measured second; nil without LatencyCSV
	HoldsOpened, HoldsFailed  int
	HoldsKicked               int64             // holds the server hung up on
	PeakFDs                   int               // peak open fds of this process; 0 = unknown
	Stats                     map[string]string // the server's `stats` after the run
}

// read is what an op's read found.
type read uint8

const (
	noRead read = iota
	hit
	miss
)

// worker is one connection's state; its op issues one operation.
type worker struct {
	c   *Config
	cl  *server.Client
	gen *ycsb.Generator // the key stream; nil for rmw
	rng *rand.Rand
	val []byte
}

type workload struct {
	name string
	mix  ycsb.Workload // the generator's mix; 0 = none
	op   func(w *worker) (read, error)
}

// workloads is every mix Run drives.
var workloads = []workload{
	{"ycsb-a", ycsb.WorkloadA, (*worker).ycsb},
	{"ycsb-b", ycsb.WorkloadB, (*worker).ycsb},
	{"ycsb-c", ycsb.WorkloadC, (*worker).ycsb},
	{"ycsb-f", ycsb.WorkloadF, (*worker).ycsb},
	{"rmw", 0, (*worker).rmw},
	{"churn", ycsb.WorkloadC, (*worker).churn},
}

// Workloads lists the mixes, "ycsb-a|…|churn".
func Workloads() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, "|")
}

func lookup(name string) (workload, error) {
	lower := strings.ToLower(name)
	for _, w := range workloads {
		if w.name == lower || w.name == "ycsb-"+lower {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (want %s)", name, Workloads())
}

func (w *worker) get(key string) (read, error) {
	_, _, ok, err := w.cl.Get(key)
	if err != nil || !ok {
		return miss, err
	}
	return hit, nil
}

// set stores a value of n bytes, shrunk by up to ValueJitter.
func (w *worker) set(key string, n int) error {
	if j := w.c.ValueJitter; j != 0 {
		n = max(n-int(j*w.rng.Float64()*float64(n)), 1)
	}
	return w.cl.SetEx(key, 0, w.c.TTL, w.val[:n])
}

func (w *worker) ycsb() (read, error) {
	o := w.gen.Next()
	switch o.Type {
	case ycsb.Read:
		return w.get(o.Key)
	case ycsb.ReadModifyWrite:
		if _, _, _, err := w.cl.Get(o.Key); err != nil {
			return noRead, err
		}
	}
	return noRead, w.set(o.Key, o.ValueSize) // Update, Insert, the RMW's write
}

// churn is cache-fill churn: zipfian gets over a keyspace sized well past
// the server's memory ceiling, set-on-miss. Steady state is a cache
// running flat against -max-memory, so the hit rate measures how much
// useful working set the server keeps per byte of heap.
func (w *worker) churn() (read, error) {
	key := w.gen.Next().Key
	r, err := w.get(key)
	if err == nil && r == miss {
		err = w.set(key, w.c.ValueSize)
	}
	return r, err
}

// rmw is the RMW/TTL mix: every stored value carries TTL, counters absorb
// incrs, and gets+cas loops contend for the same keys — read-modify-write
// under live defrag, the access pattern the paper's pause-free claim has
// to survive.
func (w *worker) rmw() (read, error) {
	key := ycsb.Key(uint64(w.rng.Intn(w.c.Records)))
	var err error
	switch r := w.rng.Intn(100); {
	case r < 35:
		_, _, _, err = w.cl.Get(key)
	case r < 60:
		err = w.set(key, w.c.ValueSize)
	case r < 75:
		_, _, err = w.cl.Incr(counterKey(w.rng.Intn(counterKeys(w.c.Records))), 1)
	case r < 87:
		// NOT_STORED (key expired/evicted) is a valid outcome.
		_, err = w.cl.Append(key, []byte("+x"))
	default:
		// One optimistic cas round; EXISTS/NOT_FOUND are valid outcomes
		// under contention and expiry.
		v, _, casID, ok, gerr := w.cl.Gets(key)
		if err = gerr; err == nil && ok {
			_, err = w.cl.Cas(key, 0, w.c.TTL, casID, append(v[:len(v):len(v)], '!'))
		}
	}
	return noRead, err
}

// counterKeys sizes the rmw workload's shared-counter keyspace: a tenth
// of the record count, at least one, so counters see real incr
// contention.
func counterKeys(records int) int { return max(records/10, 1) }

func counterKey(i int) string { return ycsb.FixedKey("ctr", uint64(i), 8) }

// Run opens the holds, loads the keyspace, drives the workload for
// Warmup+Duration, or until ctx ends, and fetches the server's stats. A
// failed op is counted in Report.Errors, not returned; a run that cannot
// start or finish is.
func Run(ctx context.Context, c Config) (Report, error) {
	rep := Report{Config: c}
	wl, err := lookup(c.Workload)
	if err != nil {
		return rep, err
	}
	interval := time.Duration(0) // the open-loop arrival spacing per connection
	if c.Rate > 0 {
		interval = time.Duration(float64(c.Connections) / c.Rate * float64(time.Second))
	}
	switch {
	case c.Connections < 1 || c.Records < 1 || c.Duration <= 0:
		return rep, errors.New("-connections, -records and -duration must be positive")
	case c.ValueJitter < 0 || c.ValueJitter > 1:
		return rep, errors.New("-value-jitter must be in [0,1]")
	case c.Rate > 0 && interval <= 0:
		return rep, errors.New("-rate too high for -connections")
	}
	if err := raiseNOFILE(c); err != nil {
		return rep, err
	}

	var peakFDs atomic.Int64
	h := openHolds(c.Addr, c.Hold)
	defer h.close()
	if c.Hold > 0 {
		// Let the holds claim their accept slots before the workers dial.
		time.Sleep(300 * time.Millisecond)
		sampleFDs(&peakFDs)
	}

	// The churn workload skips the load phase — filling on miss IS the
	// workload, and a keyspace chosen to dwarf the server's -max-memory
	// would only churn the preload through eviction.
	if wl.name != "churn" && !c.NoLoad {
		t0 := time.Now()
		if err := load(c, wl.name == "rmw"); err != nil {
			return rep, fmt.Errorf("load phase: %w", err)
		}
		rep.Load = time.Since(t0)
	}

	// The timeline is start → (warmup) → measureStart → (duration) →
	// deadline: every worker runs the whole span, but only operations
	// *intended* to start inside the measured window are recorded.
	start := time.Now()
	measureStart := start.Add(c.Warmup)
	deadline := measureStart.Add(c.Duration)
	if c.LatencyCSV != "" {
		// LatencyRecorder is safe for concurrent use: workers share these.
		rep.PerSecond = make([]*stats.LatencyRecorder, int(math.Ceil(c.Duration.Seconds())))
		for i := range rep.PerSecond {
			rep.PerSecond[i] = stats.NewLatencyRecorder()
		}
	}
	recorders := make([]*stats.LatencyRecorder, c.Connections)
	var ops, errs atomic.Int64
	var reads [3]atomic.Int64 // by read: hits and misses
	var wg sync.WaitGroup
	for id := range recorders {
		rec := stats.NewLatencyRecorder()
		recorders[id] = rec
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := server.Dial(c.Addr)
			if err != nil {
				errs.Add(1)
				return
			}
			defer cl.Close()
			defer sampleFDs(&peakFDs) // every connection of the run still open
			// With ClientTimeout, workers survive a server fault window:
			// ops are deadline-bounded, transport errors redial with
			// backoff, and the worker counts the failure and keeps driving
			// instead of dying — so a chaos run measures the server
			// through the fault, not the silence after the first error.
			resilient := c.ClientTimeout > 0
			if resilient {
				cl.SetOpTimeout(c.ClientTimeout)
				cl.EnableReconnect(5, 50*time.Millisecond, time.Second)
			}
			w := &worker{c: &c, cl: cl, val: make([]byte, c.ValueSize),
				rng: rand.New(rand.NewSource(c.Seed + 1000 + int64(id)))}
			if wl.mix != 0 {
				if w.gen, err = ycsb.NewGenerator(wl.mix, c.Records, c.ValueSize, c.Seed+int64(id)+1); err != nil {
					errs.Add(1)
					return
				}
			}
			// pace returns the op's intended start. Closed loop: now.
			// Open loop: the next slot of this connection's fixed
			// timetable (staggered across connections), sleeping until it
			// arrives — and never sleeping to catch up when the server has
			// fallen behind, so queueing delay accrues to latency.
			next := start.Add(time.Duration(id) * interval / time.Duration(c.Connections))
			pace := func() time.Time {
				if interval <= 0 {
					return time.Now()
				}
				intended := next
				next = next.Add(interval)
				if d := time.Until(intended); d > 0 {
					time.Sleep(d)
				}
				return intended
			}
			for time.Now().Before(deadline) && ctx.Err() == nil {
				intended := pace()
				r, err := wl.op(w)
				if err != nil {
					errs.Add(1)
					if resilient {
						continue
					}
					return
				}
				end := time.Now() // latency runs from the intended start
				if intended.Before(measureStart) {
					continue
				}
				lat := end.Sub(intended)
				rec.Record(lat)
				ops.Add(1)
				if r != noRead {
					reads[r].Add(1)
				}
				// An op completing past the window counts in the totals but
				// not in the series: the last row would read it as load.
				if rep.PerSecond != nil && end.Before(deadline) {
					rep.PerSecond[end.Sub(measureStart)/time.Second].Record(lat)
				}
			}
		}()
	}
	wg.Wait()
	if ctx.Err() != nil { // the measured window was cut short
		rep.Duration = min(rep.Duration, max(time.Since(measureStart), 0).Round(time.Millisecond))
	}
	h.close() // any hold still open was not kicked
	rep.HoldsOpened, rep.HoldsFailed, rep.HoldsKicked = len(h.conns), h.failed, h.kicked.Load()
	rep.PeakFDs = int(peakFDs.Load())
	rep.Ops, rep.Errors, rep.Hits, rep.Misses = ops.Load(), errs.Load(), reads[hit].Load(), reads[miss].Load()
	rep.Latency = stats.NewLatencyRecorder()
	for _, r := range recorders {
		rep.Latency.Merge(r)
	}
	if c.LatencyCSV != "" {
		if err := writeLatencyCSV(c.LatencyCSV, rep.PerSecond); err != nil {
			return rep, fmt.Errorf("latency csv: %w", err)
		}
	}
	cl, err := server.Dial(c.Addr)
	if err != nil {
		return rep, fmt.Errorf("stats fetch: %w", err)
	}
	defer cl.Close()
	if rep.Stats, err = cl.Stats(); err != nil {
		return rep, fmt.Errorf("stats: %w", err)
	}
	return rep, nil
}

// raiseNOFILE lifts the soft NOFILE limit to the hard ceiling, and fails
// when even that cannot cover the holds plus the workers and a little
// slack for stdio and sockets.
func raiseNOFILE(c Config) error {
	need := uint64(c.Hold + c.Connections + 64)
	nofile, err := rlimit.RaiseNOFILE()
	if err != nil {
		log.Printf("warning: could not raise RLIMIT_NOFILE: %v", err)
	}
	if nofile > 0 && need > nofile && (err == nil || c.Hold > 0) {
		return fmt.Errorf("RLIMIT_NOFILE is %d but -hold %d + -connections %d needs ~%d fds — raise the hard limit (ulimit -Hn) and retry",
			nofile, c.Hold, c.Connections, need)
	}
	return nil
}

// load splits the keyspace across connections, pipelined with noreply
// for speed, then a synchronous version round-trip per connection to
// barrier on completion. It also sets the rmw workload's counters:
// numeric, and without TTL (an expired counter would just read as
// NOT_FOUND).
func load(c Config, rmw bool) error {
	val := make([]byte, c.ValueSize)
	for i := range val {
		val[i] = byte(i)
	}
	var wg sync.WaitGroup
	errs := make([]error, c.Connections)
	for id := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl, err := server.Dial(c.Addr)
			if err != nil {
				errs[id] = err
				return
			}
			defer cl.Close()
			for i := id; i < c.Records && err == nil; i += c.Connections {
				if err = cl.SetNoreply(ycsb.Key(uint64(i)), 0, val); err == nil && i%256 == 0 {
					err = cl.Flush()
				}
			}
			for i := id; rmw && i < counterKeys(c.Records) && err == nil; i += c.Connections {
				err = cl.SetNoreply(counterKey(i), 0, []byte("0"))
			}
			if err == nil {
				_, err = cl.Version() // flush + sync
			}
			errs[id] = err
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// holds are idle connections, opened first so they occupy the server's
// -max-conns slots (and, with -idle-timeout, are what its reaper kicks).
// Each blocks in a read until the server closes it or the run ends. A
// failed dial is counted, not fatal: fewer holds is a smaller experiment.
type holds struct {
	conns   []net.Conn
	failed  int
	kicked  atomic.Int64
	closing atomic.Bool
	wg      sync.WaitGroup
}

func openHolds(addr string, n int) *holds {
	h := &holds{conns: make([]net.Conn, 0, n)}
	for range n {
		c, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			if h.failed++; h.failed == 1 {
				log.Printf("hold dial: %v (continuing; failures reported in summary)", err)
			}
			continue
		}
		h.conns = append(h.conns, c)
		h.wg.Add(1)
		go func() {
			defer h.wg.Done()
			if _, err := c.Read(make([]byte, 1)); err != nil && !h.closing.Load() {
				h.kicked.Add(1) // the server hung up on us
			}
		}()
	}
	return h
}

// close releases every hold and waits for its reader; idempotent.
func (h *holds) close() {
	if h.closing.Swap(true) {
		return
	}
	for _, c := range h.conns {
		_ = c.Close()
	}
	h.wg.Wait()
}

// sampleFDs raises peak to this process's open-fd count, read from
// /proc/self/fd (left alone where that isn't readable): the proof the
// holds were really open, not queued behind a dial failure.
func sampleFDs(peak *atomic.Int64) {
	if ents, err := os.ReadDir("/proc/self/fd"); err == nil && int64(len(ents)) > peak.Load() {
		peak.Store(int64(len(ents)))
	}
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// writeLatencyCSV writes the per-second latency-over-time series: one row
// per second of the measured window, ready to join against the server's
// stats for RSS-vs-latency plots.
func writeLatencyCSV(path string, buckets []*stats.LatencyRecorder) error {
	b := []byte("elapsed_s,ops,p50_us,p99_us,p999_us,max_us\n")
	for i, r := range buckets {
		b = fmt.Appendf(b, "%d,%d,%.1f,%.1f,%.1f,%.1f\n", i, r.Count(),
			us(r.Percentile(50)), us(r.Percentile(99)), us(r.Percentile(99.9)), us(r.Max()))
	}
	return os.WriteFile(path, b, 0o666)
}

// Print writes the report alaska-loadgen prints: the run summary, then
// the server's stats, one "  name value" line each in name order.
func (r *Report) Print(w io.Writer) {
	fmt.Fprintf(w, "workload=%s connections=%d records=%d value=%dB\n",
		strings.ToUpper(r.Workload), r.Connections, r.Records, r.ValueSize)
	churn := strings.EqualFold(r.Workload, "churn")
	switch {
	case churn:
		fmt.Fprintln(w, "load: skipped (churn fills on miss)")
	case r.NoLoad:
		fmt.Fprintln(w, "load: skipped (-no-load: measuring the server's existing contents)")
	default:
		fmt.Fprintf(w, "load: %d records in %v\n", r.Records, r.Load.Round(time.Millisecond))
	}
	if r.Rate > 0 {
		fmt.Fprintf(w, "open-loop: target %.0f ops/s, warmup %v\n", r.Rate, r.Warmup)
	}
	fmt.Fprintf(w, "run: %d ops in %v = %.0f ops/s, errors: %d\n",
		r.Ops, r.Duration, float64(r.Ops)/r.Duration.Seconds(), r.Errors)
	l := r.Latency
	fmt.Fprintf(w, "latency: mean=%v p50=%v p99=%v p999=%v max=%v\n",
		l.Mean(), l.Percentile(50), l.Percentile(99), l.Percentile(99.9), l.Max())
	hitRate := 0.0
	if r.Hits+r.Misses > 0 {
		hitRate = float64(r.Hits) / float64(r.Hits+r.Misses)
	}
	// With -no-load after a -persist restart, the warm-restart figure.
	if !churn && r.Hits+r.Misses > 0 {
		fmt.Fprintf(w, "reads: hits=%d misses=%d hit_rate=%.4f\n", r.Hits, r.Misses, hitRate)
	}
	if r.Hold > 0 {
		fmt.Fprintf(w, "idle holds: %d opened, %d failed, %d kicked by server\n",
			r.HoldsOpened, r.HoldsFailed, r.HoldsKicked)
	}
	if r.PeakFDs > 0 {
		fmt.Fprintf(w, "peak open fds: %d\n", r.PeakFDs)
	}
	if churn {
		// A capped cache's figure of merit: hit rate per MiB of real
		// memory, higher for a backend that packs more live values into
		// the same RSS.
		fmt.Fprintf(w, "churn: hits=%d misses=%d hit_rate=%.4f\n", r.Hits, r.Misses, hitRate)
		if rss, err := strconv.ParseUint(r.Stats["rss_bytes"], 10, 64); err == nil && rss > 0 {
			fmt.Fprintf(w, "churn: rss_bytes=%d hit_rate_per_rss_mib=%.6f\n",
				rss, hitRate/(float64(rss)/(1<<20)))
		}
	}
	fmt.Fprintln(w, "server stats after run:")
	for _, k := range slices.Sorted(maps.Keys(r.Stats)) {
		fmt.Fprintf(w, "  %s %s\n", k, r.Stats[k])
	}
}
