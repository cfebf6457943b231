package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// scaled shrinks a workload to something a test can set up in milliseconds.
func scaled(w workload) workload {
	w.keys, w.preload, w.pool = 800, 800, 48
	if w.maxMemory > 0 {
		w.preload, w.maxMemory = 200, 160<<10
	}
	return w
}

var smallLedger = ledgerSize{objects: 300, batches: 3, batch: 32, defragRuns: 1}

func TestSameSeedSameStreams(t *testing.T) {
	for _, w := range workloads {
		w = scaled(w)
		a, b, c := render(w, 7), render(w, 7), render(w, 8)
		if a.fingerprint() != b.fingerprint() {
			t.Errorf("%s: one seed, two fingerprints", w.name)
		}
		if a.fingerprint() == c.fingerprint() {
			t.Errorf("%s: two seeds, one fingerprint", w.name)
		}
		for ci := range a.conn {
			m := &a.conn[ci].main
			if m.rts() != w.pool || len(m.ops) != w.pool*w.depth {
				t.Fatalf("%s: conn %d has %d round trips, %d ops", w.name, ci, m.rts(), len(m.ops))
			}
			for _, o := range m.ops {
				if int(o.key) >= w.keys || (o.set && int(o.key)%conns != ci) {
					t.Fatalf("%s: conn %d sends %+v", w.name, ci, o)
				}
			}
		}
	}
}

// The null server must answer every generated stream so that the client
// accepts every reply.
func TestNullServerAnswersEveryStream(t *testing.T) {
	for _, w := range workloads {
		w = scaled(w)
		cfg := config{wl: w, seconds: 0.1}
		st := render(w, 3)
		n, err := newNullServer(make([]byte, w.keys*w.maxSize), w.keys, w.maxSize)
		if err != nil {
			t.Fatal(err)
		}
		cs, err := connect(cfg, st, n.addr())
		if err != nil {
			t.Fatalf("%s: set-up: %v", w.name, err)
		}
		var total tally
		for i, c := range cs {
			if err := c.play(&st.conn[i].main); err != nil {
				t.Errorf("%s: %v", w.name, err)
			}
			total.add(&c.tally, false)
		}
		closeAll(cs)
		n.shutdown()
		if err := refuses(n.addr()); err != nil {
			t.Error(err)
		}
		if total.failed != 0 || total.attempted < int64(conns*w.pool*w.depth) {
			t.Errorf("%s: %d of %d ops failed", w.name, total.failed, total.attempted)
		}
	}
}

// fakeServer answers each GET line with what reply returns and never closes
// a connection itself, so a client that is owed bytes must time out.
func fakeServer(t *testing.T, reply func(key []byte) []byte) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			t.Cleanup(func() { nc.Close() })
			go func() {
				r := bufio.NewReader(nc)
				for {
					ln, err := r.ReadBytes('\n')
					if err != nil {
						return
					}
					if _, err := nc.Write(reply(bytes.TrimSpace(ln)[4:])); err != nil {
						return
					}
				}
			}()
		}
	}()
	return ln.Addr().String()
}

// A server replying short, with the wrong length or with a torn value makes
// failed rise, and the run finishes: through the deadline where bytes are
// owed, at once where the framing holds.
func TestBadRepliesFailAndFinish(t *testing.T) {
	defer func(d time.Duration) { ioTimeout = d }(ioTimeout)
	ioTimeout = 150 * time.Millisecond
	w := scaled(workloads[0])
	st := render(w, 5)
	value := func(key []byte, declared int, body []byte) []byte {
		return append(append([]byte(fmt.Sprintf("VALUE %s 0 %d\r\n", key, declared)), body...), "\r\nEND\r\n"...)
	}
	good := func(key []byte) []byte {
		k, _ := parseKey(key)
		return appendValue(nil, k, preloadTag, w.minSize)
	}
	for _, c := range []struct {
		name    string
		reply   func(key []byte) []byte
		breaks  bool
		atLeast time.Duration
	}{
		{"short", func(key []byte) []byte { return value(key, w.minSize, good(key))[:100] }, true, ioTimeout},
		{"wrong-length", func(key []byte) []byte { return value(key, w.minSize, good(key)[:w.minSize-40]) }, true, 0},
		{"torn", func(key []byte) []byte {
			v := good(key)
			v[len(v)-1]++
			return value(key, w.minSize, v)
		}, false, 0},
		{"wrong-key", func(key []byte) []byte { return value([]byte("k00000799"), w.minSize, good(key)) }, false, 0},
	} {
		cn, err := dial(fakeServer(t, c.reply), 0, w.keys, false)
		if err != nil {
			t.Fatal(err)
		}
		t0 := time.Now()
		cn.drive(&st.conn[0].main, t0.Add(50*time.Millisecond))
		took := time.Since(t0)
		cn.close()
		if cn.failed == 0 || cn.failed > cn.attempted || len(cn.samples) != 0 {
			t.Errorf("%s: %d failed of %d, %d samples", c.name, cn.failed, cn.attempted, len(cn.samples))
		}
		if cn.broken != c.breaks || took < c.atLeast || took > 20*ioTimeout {
			t.Errorf("%s: broken=%v after %v", c.name, cn.broken, took)
		}
	}
}

// persist_mixed's replay check passes on the log alaskad left and fails when
// a segment is truncated behind its back.
func TestReplayCheckSeesATruncatedSegment(t *testing.T) {
	w := scaled(workloads[3])
	if !w.persist {
		t.Fatal("workloads[3] should persist")
	}
	dir := t.TempDir()
	st := render(w, 11)
	a, err := bootAlaskad(w, dir)
	if err != nil {
		t.Fatal(err)
	}
	cs, err := connect(config{wl: w, seconds: 0.1}, st, a.srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	for i, c := range cs {
		if err := c.play(&st.conn[i].main); err != nil || c.failed != 0 {
			t.Fatalf("conn %d: %v, %d failed", i, err, c.failed)
		}
	}
	closeAll(cs)
	if err := a.shutdown(); err != nil {
		t.Fatal(err)
	}
	if _, err := checkReplay(w, dir, st, cs, a.wlog.Stats().DroppedRecords); err != nil {
		t.Fatalf("intact log: %v", err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "pack-*.log"))
	if len(segs) == 0 {
		t.Fatal("no segment on disk")
	}
	var last string
	var size int64
	for _, s := range segs { // the newest segment that holds records
		if fi, err := os.Stat(s); err == nil && fi.Size() > 1024 {
			last, size = s, fi.Size()
		}
	}
	if err := os.Truncate(last, size-700); err != nil {
		t.Fatal(err)
	}
	if _, err := checkReplay(w, dir, st, cs, 0); err == nil {
		t.Error("the replay check passed on a truncated segment")
	}
}

// On a scaled-down fixture every workload emits every declared metric once
// and none undeclared, with both --trace values, correct and leaving nothing
// behind.
func TestEveryWorkloadEmitsItsMetrics(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{wl: scaled(w), seed: 9, seconds: 0.25, trace: trace, outDir: t.TempDir(), ledger: smallLedger}
			defs := endToEndDefs
			if trace {
				defs = perLayerDefs
			}
			var out bytes.Buffer
			if err := benchmark(context.Background(), cfg, &out); err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct           bool
				Attempted, Failed int64
				Metrics           map[string]metricValue
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%v: result line: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d failed", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			printed := map[string]int{}
			for _, ln := range lines[:len(lines)-1] {
				if f := strings.Fields(ln); len(f) == 3 {
					printed[f[0]]++
				}
			}
			for _, d := range defs {
				if v, ok := res.Metrics[d.Name]; !ok || v.Unit != d.Unit || printed[d.Name] != 1 {
					t.Errorf("%s trace=%v: %s: in result %v, unit %q, printed %d times", w.name, trace, d.Name, ok, v.Unit, printed[d.Name])
				}
				if !trace && res.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s: %s = %g", w.name, d.Name, res.Metrics[d.Name].Value)
				}
			}
			if len(res.Metrics) != len(defs) || len(printed) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics in the result, %d printed, %d declared", w.name, trace, len(res.Metrics), len(printed), len(defs))
			}
			left, _ := filepath.Glob(filepath.Join(cfg.outDir, "*"))
			if trace != (len(left) == 1) || (trace && filepath.Base(left[0]) != "trace."+w.name+".json") {
				t.Errorf("%s trace=%v: left in the out dir: %v", w.name, trace, left)
			}
		}
	}
}
