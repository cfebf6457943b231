package server

// Event-core battery: the properties the readiness-poller architecture
// exists for. A parked connection must be reapable without ever being
// assigned a worker (it is just an fd — no goroutine to unblock), and a
// thousand parked connections must not slow the defrag machinery down,
// because parked connections hold no rt.Thread: the pause-free pass's
// grace period (like a barrier's rendezvous) waits on the bounded worker
// set only.

import (
	"net"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"alaska/internal/kv"
)

// requireEventModel skips on platforms without the epoll poller.
func requireEventModel(t *testing.T, srv *Server) {
	t.Helper()
	if runtime.GOOS != "linux" {
		t.Skip("event poller is linux-only")
	}
	if srv.ConnModel() != "event" {
		t.Fatalf("conn model = %s, want event on linux", srv.ConnModel())
	}
}

// TestParkedIdleReapNoWorker: a connection that connects and never sends
// a byte is parked straight from accept and never becomes ready — so the
// idle reaper must close it directly from the sweep, without the
// connection ever being assigned a worker. This is the structural win
// over the goroutine transport, where reaping always means unblocking a
// reader goroutine.
func TestParkedIdleReapNoWorker(t *testing.T) {
	clk := newTestClock()
	srv := startServer(t, kv.NewMallocBackend(), Config{
		Addr:             "127.0.0.1:0",
		Clock:            clk.Now,
		IdleTimeout:      10 * time.Second,
		MaintainInterval: 2 * time.Millisecond,
		Version:          "parktest",
	})
	requireEventModel(t, srv)

	c := dialRaw(t, srv.Addr())
	defer c.Close()

	// Wait for registration: the connection shows up in the parked gauge
	// without any worker activity.
	deadline := time.Now().Add(5 * time.Second)
	for {
		parked, _, _ := srv.pollerGauges()
		if parked == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("connection never parked (parked gauge %d)", parked)
		}
		time.Sleep(time.Millisecond)
	}

	clk.Advance(11 * time.Second)

	_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Read(make([]byte, 1)); err == nil {
		t.Fatal("parked connection still alive past the idle deadline")
	}

	// The whole lifetime — park, reap, close — must have happened with
	// zero worker bursts: nothing was ever readable, so nothing was ever
	// scheduled. (Checked via internals before any stats connection can
	// generate bursts of its own.)
	if bursts := srv.poller.burstCount(); bursts != 0 {
		t.Errorf("reaping a parked connection consumed %d worker bursts, want 0", bursts)
	}
	if kicks := srv.idleKicks.Load(); kicks != 1 {
		t.Errorf("idle_kicks = %d, want 1", kicks)
	}
}

// TestDefragBarrierWithParkedHorde: with 1000 parked idle connections
// and live churn traffic, the pause-free defrag passes must keep
// completing — parked connections hold no rt.Thread, so the grace period
// a pass's vacated blocks wait out covers the bounded worker set, not the
// horde. Run
// under -race this also hammers register/park/sweep against the worker
// pool.
func TestDefragBarrierWithParkedHorde(t *testing.T) {
	srv := startDefragStressServer(t, defragStress)
	requireEventModel(t, srv)

	// The horde: 1000 connections that never send a byte, parked as bare
	// fds in the poller.
	const horde = 1000
	conns := make([]net.Conn, 0, horde)
	defer func() {
		for _, c := range conns {
			_ = c.Close()
		}
	}()
	for i := 0; i < horde; i++ {
		c, err := net.DialTimeout("tcp", srv.Addr(), 5*time.Second)
		if err != nil {
			t.Fatalf("horde dial %d: %v", i, err)
		}
		conns = append(conns, c)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		parked, _, _ := srv.pollerGauges()
		if parked >= horde {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d connections parked", parked, horde)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Fragmenting churn on 4 workers while the horde sits parked.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cl, err := Dial(srv.Addr())
			if err != nil {
				t.Error(err)
				return
			}
			defer cl.Close()
			val := make([]byte, 1024)
			for op := 0; ; op++ {
				select {
				case <-stop:
					return
				default:
				}
				key := "w" + strconv.Itoa(w) + "-k" + strconv.Itoa(op%64)
				if err := cl.Set(key, 0, val[:32+(op*37)%992]); err != nil {
					t.Errorf("worker %d: %v", w, err)
					return
				}
			}
		}(w)
	}

	time.Sleep(300 * time.Millisecond)
	before := statsVia(t, srv.Addr())
	passesBefore, _ := strconv.ParseInt(before["defrag_concurrent_passes"], 10, 64)

	// The measured window: defrag passes must keep completing at full
	// cadence with 1000 parked fds.
	time.Sleep(500 * time.Millisecond)

	// A fresh connection must round-trip promptly — nothing is stuck
	// waiting on the horde.
	rtStart := time.Now()
	after := statsVia(t, srv.Addr())
	if rtt := time.Since(rtStart); rtt > 2*time.Second {
		t.Errorf("stats round-trip took %v with the horde parked", rtt)
	}
	passesAfter, _ := strconv.ParseInt(after["defrag_concurrent_passes"], 10, 64)
	if passesAfter <= passesBefore {
		t.Errorf("defrag made no progress with %d parked connections: %d -> %d passes",
			horde, passesBefore, passesAfter)
	}
	if after["protocol_errors"] != "0" {
		t.Errorf("protocol_errors = %s, want 0", after["protocol_errors"])
	}

	close(stop)
	wg.Wait()
	t.Logf("defrag passes %d -> %d with %d parked connections", passesBefore, passesAfter, horde)
}

// TestEventStatsGauges: the new stat rows exist and track the parked
// population.
func TestEventStatsGauges(t *testing.T) {
	srv := startServer(t, kv.NewMallocBackend(), Config{Addr: "127.0.0.1:0", Version: "gaugetest"})
	requireEventModel(t, srv)

	idle := dialRaw(t, srv.Addr())
	defer idle.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if parked, _, _ := srv.pollerGauges(); parked >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("connection never parked")
		}
		time.Sleep(time.Millisecond)
	}

	st := statsVia(t, srv.Addr())
	if st["conn_model"] != "event" {
		t.Errorf("conn_model = %q, want event", st["conn_model"])
	}
	if parked, _ := strconv.Atoi(st["conns_parked"]); parked < 1 {
		t.Errorf("conns_parked = %s, want >= 1", st["conns_parked"])
	}
	if _, ok := st["conns_active"]; !ok {
		t.Error("conns_active stat missing")
	}
	if _, ok := st["worker_queue_depth"]; !ok {
		t.Error("worker_queue_depth stat missing")
	}
}
