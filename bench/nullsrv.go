package main

import (
	"bytes"
	"errors"
	"net"
	"strconv"
	"sync"
)

// nullServer is the yardstick every timing is divided by: it parses the two
// commands the client sends and keeps values in a plain table indexed by key
// number — SET copies the body in, GET copies it out — so that its working
// set and its share of memory traffic resemble alaskad's. Same client,
// loopback, runtime and kernel; nothing of alaskad. Frozen with the
// benchmark: a change here moves every ratio.
type nullServer struct {
	ln    net.Listener
	slot  int
	table []byte  // keys × slot
	lens  []int32 // 0 = absent
	locks [256]sync.Mutex

	mu    sync.Mutex
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup // accept loop and one goroutine per connection
}

// newNullServer serves keys slots of slot bytes out of table, which the
// caller owns so that a run's many null servers do not each fault in and
// zero their own.
func newNullServer(table []byte, keys, slot int) (*nullServer, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &nullServer{ln: ln, slot: slot, table: table[:keys*slot], lens: make([]int32, keys),
		conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.accept()
	return s, nil
}

func (s *nullServer) addr() string { return s.ln.Addr().String() }

func (s *nullServer) accept() {
	defer s.wg.Done()
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		s.conns[nc] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serve(nc)
	}
}

// shutdown closes the listener and every connection and returns once all of
// the server's goroutines have exited.
func (s *nullServer) shutdown() {
	_ = s.ln.Close()
	s.mu.Lock()
	for nc := range s.conns {
		_ = nc.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
}

var errNullProtocol = errors.New("null server: unexpected command")

func (s *nullServer) serve(nc net.Conn) {
	defer s.wg.Done()
	defer func() {
		_ = nc.Close()
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
	}()
	in := make([]byte, 0, 128<<10)
	out := make([]byte, 0, 128<<10)
	for {
		if len(in) == cap(in) {
			return // a command larger than the buffer: not ours
		}
		n, err := nc.Read(in[len(in):cap(in)])
		if n == 0 && err != nil {
			return
		}
		in = in[:len(in)+n]
		used := 0
		for {
			m, o, err := s.command(in[used:], out)
			if err != nil {
				return
			}
			if m == 0 {
				break
			}
			used, out = used+m, o
		}
		in = in[:copy(in, in[used:])]
		if len(out) > 0 {
			if _, err := nc.Write(out); err != nil {
				return
			}
			out = out[:0]
		}
	}
}

// command executes the first complete command of in, appending the reply
// to out, and returns how many bytes it consumed; 0 means "incomplete".
func (s *nullServer) command(in, out []byte) (int, []byte, error) {
	eol := bytes.IndexByte(in, '\n')
	if eol < 1 {
		return 0, out, nil
	}
	ln := in[:eol-1]
	if len(ln) < 4+keyLen {
		return 0, out, errNullProtocol
	}
	key, ok := parseKey(ln[4 : 4+keyLen])
	if !ok || int(key) >= len(s.lens) {
		return 0, out, errNullProtocol
	}
	slot := s.table[int(key)*s.slot : (int(key)+1)*s.slot]
	lock := &s.locks[key%uint32(len(s.locks))]
	switch string(ln[:4]) {
	case "get ":
		lock.Lock()
		if n := int(s.lens[key]); n > 0 {
			out = append(out, "VALUE "...)
			out = append(out, ln[4:]...)
			out = append(out, " 0 "...)
			out = strconv.AppendInt(out, int64(n), 10)
			out = append(out, "\r\n"...)
			out = append(out, slot[:n]...)
			out = append(out, "\r\n"...)
		}
		lock.Unlock()
		return eol + 1, append(out, "END\r\n"...), nil
	case "set ":
		// set <key> <flags> <exptime> <bytes>
		sp := bytes.LastIndexByte(ln, ' ')
		n, err := strconv.Atoi(string(ln[sp+1:]))
		if err != nil || n < 1 || n > s.slot {
			return 0, out, errNullProtocol
		}
		if len(in) < eol+1+n+2 {
			return 0, out, nil
		}
		lock.Lock()
		copy(slot, in[eol+1:eol+1+n])
		s.lens[key] = int32(n)
		lock.Unlock()
		return eol + 1 + n + 2, append(out, "STORED\r\n"...), nil
	}
	return 0, out, errNullProtocol
}
