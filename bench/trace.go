package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"alaska/internal/kv"
)

// The traced pass. After the last epoch's segments the client drives one
// more alaskad segment in which it records, for 1 round trip in traceEvery,
// a root span client.request with children client.write and
// client.wait_read. Then, with the server idle, it replays those same round
// trips straight into that instance's ShardedStore, recording kv.get /
// kv.set under the same id with parent client.wait_read. Only measured
// spans, no modelled ones: what is left of client.wait_read after its kv
// children — its self time — is the server's parse and reply, the poller,
// the sockets and the scheduler.
const traceEvery = 64

var zeroHdr [serverValueHdr]byte // flags 0, cas unique 0

type span struct {
	Name   string `json:"name"`
	ID     string `json:"id"` // c<conn>#<seq>, shared by one round trip's spans
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"` // since the traced segment began
	End    int64  `json:"end_ns"`
}

// tracedRT is one sampled round trip: which one, and how long the client
// waited for its replies.
type tracedRT struct {
	rt   int
	id   string
	wait int64
}

// connTrace is one connection's share of the log; only that connection's
// goroutine touches it, so recording takes no lock.
type connTrace struct {
	spans        []span
	rt           int // the round trip now open
	start, wrote int64
	done         []tracedRT
}

// spanLog keeps spans in memory until the run ends.
type spanLog struct {
	origin time.Time
	conn   [conns]connTrace
}

func (l *spanLog) since(t time.Time) int64 { return int64(t.Sub(l.origin)) }

// wrote opens a round trip: connection c began writing rt at t0 and was
// done at t1.
func (l *spanLog) wrote(c, rt int, t0, t1 time.Time) {
	ct := &l.conn[c]
	ct.rt, ct.start, ct.wrote = rt, l.since(t0), l.since(t1)
}

// answered closes it: the last reply was checked at t.
func (l *spanLog) answered(c int, t time.Time) {
	ct := &l.conn[c]
	id, end := fmt.Sprintf("c%d#%d", c, len(ct.done)), l.since(t)
	ct.spans = append(ct.spans,
		span{Name: "client.request", ID: id, Start: ct.start, End: end},
		span{Name: "client.write", ID: id, Parent: "client.request", Start: ct.start, End: ct.wrote},
		span{Name: "client.wait_read", ID: id, Parent: "client.request", Start: ct.wrote, End: end})
	ct.done = append(ct.done, tracedRT{rt: ct.rt, id: id, wait: end - ct.wrote})
}

// tracedSegment is the extra segment and the replay into the store.
func (p *pair) tracedSegment(res *result, d time.Duration) {
	log := &spanLog{origin: time.Now()}
	for _, c := range p.ac {
		c.spans = log
	}
	ops, wall, _ := segment(p.ac, p.st, d, nil)
	for _, c := range p.ac {
		c.spans = nil
	}
	res.tracedRate = float64(ops) / wall.Seconds()
	drain(p.ac, &res.setup, false)

	// All connections at once, each on a session of its own, as the
	// server's workers would. A replayed SET is an acknowledged write like
	// any other, so the connection's view of its keys follows it.
	store := p.alaskad.store
	var mu sync.Mutex
	var wg sync.WaitGroup
	for ci, c := range p.ac {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ct := &log.conn[ci]
			sess := store.NewSession()
			defer sess.Close()
			var key, buf, val []byte
			var selfs []float64
			for _, rt := range ct.done {
				_, ops := p.st.conn[ci].main.rt(rt.rt)
				var kvNs int64
				for _, o := range ops {
					key = appendKey(key[:0], o.key)
					name, t0 := "kv.get", time.Now()
					var err error
					if o.set {
						name = "kv.set"
						val = appendValue(append(val[:0], zeroHdr[:]...), o.key, o.tag, int(o.size))
						t0 = time.Now()
						_, err = store.SetExBytes(sess, key, val, kv.SetAlways, time.Time{})
						c.acked(o)
					} else {
						buf, _, err = store.GetInto(sess, key, buf)
					}
					t1 := time.Now()
					if err != nil {
						mu.Lock()
						res.fault("traced replay: %s %s: %v", name, key, err)
						mu.Unlock()
					}
					ct.spans = append(ct.spans, span{Name: name, ID: rt.id, Parent: "client.wait_read",
						Start: log.since(t0), End: log.since(t1)})
					kvNs += int64(t1.Sub(t0))
				}
				sess.Safepoint()
				selfs = append(selfs, float64(rt.wait-kvNs))
			}
			mu.Lock()
			res.tracedSelf = append(res.tracedSelf, selfs...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	res.spans = log
}

// medianOf is the median duration in ns of the spans called name.
func (l *spanLog) medianOf(name string) float64 {
	var d []float64
	for c := range l.conn {
		for _, s := range l.conn[c].spans {
			if s.Name == name {
				d = append(d, float64(s.End-s.Start))
			}
		}
	}
	return median(d)
}

// write puts the spans in dir as trace.<workload>.json.
func (l *spanLog) write(dir, workload string) error {
	var all []span
	for c := range l.conn {
		all = append(all, l.conn[c].spans...)
	}
	b, err := json.Marshal(all)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace."+workload+".json"), b, 0o644)
}
