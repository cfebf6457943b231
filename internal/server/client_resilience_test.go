package server

// Client resilience: per-op deadlines and reconnect-with-backoff. The
// load generator leans on both to keep driving traffic through a fault
// window — a hung or dropped connection must fail the one op quickly
// and leave the client usable, not wedge a worker forever.

import (
	"net"
	"testing"
	"time"

	"alaska/internal/kv"
)

// TestClientOpTimeout points the client at a listener that accepts and
// then never answers: the op must fail within the deadline instead of
// blocking forever.
func TestClientOpTimeout(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			// Hold the connection open, read nothing, answer nothing.
			defer c.Close()
		}
	}()

	cl, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.c.Close()
	cl.SetOpTimeout(100 * time.Millisecond)

	start := time.Now()
	_, _, _, err = cl.Get("k")
	if err == nil {
		t.Fatal("get against a mute server succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("op took %v to fail, deadline was 100ms", elapsed)
	}
	ne, ok := err.(net.Error)
	if !ok || !ne.Timeout() {
		t.Fatalf("err = %v, want a net timeout", err)
	}
}

// TestClientReconnectAfterDrop severs the connection under the client
// mid-session against a real server: the in-flight op fails (its
// protocol position is unknown — it must not be replayed), and the next
// op succeeds on a transparently redialed connection.
func TestClientReconnectAfterDrop(t *testing.T) {
	srv := startServer(t, kv.NewMallocBackend(), Config{Addr: "127.0.0.1:0", Version: "reconnect-test"})

	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer cl.Close()
	cl.SetOpTimeout(2 * time.Second)
	cl.EnableReconnect(10, 10*time.Millisecond, 100*time.Millisecond)

	if err := cl.Set("survivor", 0, []byte("v1")); err != nil {
		t.Fatalf("set: %v", err)
	}

	// Kill the socket under the client. The next op must error — not
	// hang, not silently succeed — and the one after must land on a
	// fresh connection.
	_ = cl.c.Close()
	if err := cl.Set("mid-drop", 0, []byte("x")); err == nil {
		t.Fatal("op on a severed connection reported success")
	}

	if err := cl.Set("after", 0, []byte("v2")); err != nil {
		t.Fatalf("set after reconnect: %v", err)
	}
	v, _, ok, err := cl.Get("survivor")
	if err != nil || !ok || string(v) != "v1" {
		t.Fatalf("get survivor after reconnect = %q ok=%v err=%v", v, ok, err)
	}
}

// TestClientNoReconnectStaysBroken: without EnableReconnect a transport
// error is terminal — later ops fail fast with errBroken instead of
// writing into a dead socket.
func TestClientNoReconnectStaysBroken(t *testing.T) {
	srv := startServer(t, kv.NewMallocBackend(), Config{Addr: "127.0.0.1:0", Version: "broken-test"})

	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	_ = cl.c.Close()
	if err := cl.Set("a", 0, []byte("v")); err == nil {
		t.Fatal("op on a severed connection reported success")
	}
	if err := cl.Set("b", 0, []byte("v")); err != errBroken {
		t.Fatalf("second op err = %v, want errBroken", err)
	}
}

// TestClientReconnectGivesUp: with the server gone for good, redial
// exhausts its attempt budget and ops keep failing rather than spinning.
func TestClientReconnectGivesUp(t *testing.T) {
	srv := startServer(t, kv.NewMallocBackend(), Config{Addr: "127.0.0.1:0", Version: "giveup-test"})

	cl, err := Dial(srv.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	cl.EnableReconnect(2, time.Millisecond, 5*time.Millisecond)

	// Take the whole server down so every redial is refused.
	_ = srv.Shutdown(time.Second)
	_ = cl.c.Close()

	if err := cl.Set("a", 0, []byte("v")); err == nil {
		t.Fatal("op against a dead server reported success")
	}
	if err := cl.Set("b", 0, []byte("v")); err == nil {
		t.Fatal("op after failed redials reported success")
	}
}
