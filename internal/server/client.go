package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"time"
)

// Client is a minimal memcached-ASCII-protocol client for alaskad: the
// load generator, the smoke tests, and the conformance suite all drive
// the server through it. One Client owns one connection and is not safe
// for concurrent use — open one per worker, like a real cache client
// pool does.
//
// The request path is allocation-free in steady state: requests are
// assembled with WriteString/AppendUint (no fmt), responses are parsed
// as byte slices out of the read buffer, and retrieved values land in a
// grow-only scratch buffer — so a loadgen built on this client measures
// the server, not its own allocator. The price is an aliasing contract:
// a value returned by Get/Gets/Gat/Gats is valid only until the next
// retrieval on the same Client; callers that keep it must copy.
type Client struct {
	c    net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	addr string

	// val receives retrieved value bodies (grow-only scratch).
	val []byte
	// num formats request integers.
	num []byte
	// lineBuf accumulates a response line longer than the read buffer
	// (stats surfaces, pathological servers) — never the data block.
	lineBuf []byte
	// fields holds tokenized response-header slices.
	fields [][]byte

	// Resilience knobs (see SetOpTimeout / EnableReconnect). opTimeout
	// deadline-bounds each op; a transport error marks the connection
	// broken — its protocol position is unknown, so it is torn down —
	// and, with reconnect enabled, redialed with jittered exponential
	// backoff. The failing op's error still surfaces (the request cannot
	// be replayed safely); the NEXT op runs on the fresh connection.
	opTimeout     time.Duration
	reconnect     bool
	reconAttempts int
	reconMin      time.Duration
	reconMax      time.Duration
	broken        bool
}

// errBroken reports an op issued on a connection that failed earlier
// and has not been re-established.
var errBroken = errors.New("client: connection broken")

// Dial connects to a server.
func Dial(addr string) (*Client, error) {
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	return &Client{c: c, r: bufio.NewReaderSize(c, 16<<10), w: bufio.NewWriterSize(c, 16<<10), addr: addr}, nil
}

// SetOpTimeout bounds every subsequent op with a read+write deadline: a
// server that accepts the request but never answers fails the op within
// d instead of hanging the caller forever. 0 disables (the default).
func (cl *Client) SetOpTimeout(d time.Duration) { cl.opTimeout = d }

// EnableReconnect makes a transport error redial the server: up to
// attempts tries with exponential backoff from min to max, each sleep
// jittered ±50% so a fleet of clients does not reconnect in lockstep.
// The op that hit the error still fails — its request cannot be
// replayed without risking duplication — but subsequent ops proceed on
// the fresh connection.
func (cl *Client) EnableReconnect(attempts int, min, max time.Duration) {
	if attempts <= 0 {
		attempts = 5
	}
	if min <= 0 {
		min = 50 * time.Millisecond
	}
	if max < min {
		max = min
	}
	cl.reconnect = true
	cl.reconAttempts = attempts
	cl.reconMin = min
	cl.reconMax = max
}

// fail handles a transport error: the connection's protocol position is
// unknown (half-written request, unread response), so it is closed and
// — with reconnect enabled — redialed so the next op finds a fresh
// connection. Returns err for the caller to surface.
func (cl *Client) fail(err error) error {
	_ = cl.c.Close()
	cl.broken = true
	if cl.reconnect && cl.redial() == nil {
		cl.broken = false
	}
	return err
}

// redial re-establishes the connection with jittered exponential
// backoff, resetting the buffered reader/writer onto the new socket
// (which discards any half-assembled request — by design: it belonged
// to the op that already failed).
func (cl *Client) redial() error {
	var err error
	backoff := cl.reconMin
	if backoff <= 0 {
		backoff = 50 * time.Millisecond
	}
	attempts := cl.reconAttempts
	if attempts <= 0 {
		attempts = 1
	}
	for i := 0; i < attempts; i++ {
		if i > 0 {
			// ±50% jitter: sleep in [backoff/2, backoff*3/2).
			time.Sleep(backoff/2 + time.Duration(rand.Int63n(int64(backoff))))
			if backoff *= 2; cl.reconMax > 0 && backoff > cl.reconMax {
				backoff = cl.reconMax
			}
		}
		var c net.Conn
		if c, err = net.DialTimeout("tcp", cl.addr, 5*time.Second); err == nil {
			cl.c = c
			cl.r.Reset(c)
			cl.w.Reset(c)
			return nil
		}
	}
	return err
}

// flush starts an op on the wire: arm the per-op deadline (one deadline
// at flush time covers the whole op — every op is write-then-read) and
// drain the request buffer. A broken connection fails the op up front
// (its request bytes were assembled against the dead socket) but
// re-attempts the redial so a later op can succeed.
func (cl *Client) flush() error {
	if cl.broken {
		if cl.reconnect && cl.redial() == nil {
			cl.broken = false
		}
		return errBroken
	}
	if cl.opTimeout > 0 {
		_ = cl.c.SetDeadline(time.Now().Add(cl.opTimeout))
	}
	if err := cl.w.Flush(); err != nil {
		return cl.fail(err)
	}
	return nil
}

// Close sends quit and closes the connection.
func (cl *Client) Close() error {
	_, _ = cl.w.WriteString("quit\r\n")
	_ = cl.w.Flush()
	return cl.c.Close()
}

// lineBytes reads one response line without allocating: the returned
// slice aliases the read buffer (or lineBuf for over-length lines) and
// is valid only until the next read on the connection.
func (cl *Client) lineBytes() ([]byte, error) {
	s, err := cl.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		cl.lineBuf = append(cl.lineBuf[:0], s...)
		for err == bufio.ErrBufferFull {
			s, err = cl.r.ReadSlice('\n')
			cl.lineBuf = append(cl.lineBuf, s...)
		}
		s = cl.lineBuf
	}
	if err != nil {
		return nil, cl.fail(err)
	}
	s = s[:len(s)-1] // \n
	if len(s) > 0 && s[len(s)-1] == '\r' {
		s = s[:len(s)-1]
	}
	return s, nil
}

func (cl *Client) line() (string, error) {
	b, err := cl.lineBytes()
	return string(b), err
}

// writeUint appends a base-10 integer to the request without fmt.
func (cl *Client) writeUint(v uint64) {
	cl.num = strconv.AppendUint(cl.num[:0], v, 10)
	_, _ = cl.w.Write(cl.num)
}

func (cl *Client) writeInt(v int64) {
	cl.num = strconv.AppendInt(cl.num[:0], v, 10)
	_, _ = cl.w.Write(cl.num)
}

// writeStorageHeader assembles `<cmd> <key> <flags> <exptime> <bytes>`.
func (cl *Client) writeStorageHeader(cmd, key string, flags uint32, exptime int64, n int) {
	_, _ = cl.w.WriteString(cmd)
	_ = cl.w.WriteByte(' ')
	_, _ = cl.w.WriteString(key)
	_ = cl.w.WriteByte(' ')
	cl.writeUint(uint64(flags))
	_ = cl.w.WriteByte(' ')
	cl.writeInt(exptime)
	_ = cl.w.WriteByte(' ')
	cl.writeUint(uint64(n))
}

// store issues one storage command and decodes the reply.
func (cl *Client) store(cmd, key string, flags uint32, exptime int64, value []byte) (bool, error) {
	cl.writeStorageHeader(cmd, key, flags, exptime, len(value))
	_, _ = cl.w.WriteString(crlf)
	_, _ = cl.w.Write(value)
	_, _ = cl.w.WriteString(crlf)
	if err := cl.flush(); err != nil {
		return false, err
	}
	resp, err := cl.lineBytes()
	if err != nil {
		return false, err
	}
	switch string(resp) {
	case respStored:
		return true, nil
	case respNotStored:
		return false, nil
	}
	return false, fmt.Errorf("server: %s %q: %s", cmd, key, resp)
}

// Set stores key=value unconditionally, with no expiry.
func (cl *Client) Set(key string, flags uint32, value []byte) error {
	_, err := cl.store("set", key, flags, 0, value)
	return err
}

// SetEx stores key=value with a wire exptime (relative seconds up to 30
// days, absolute unix timestamp beyond, negative = already expired).
func (cl *Client) SetEx(key string, flags uint32, exptime int64, value []byte) error {
	_, err := cl.store("set", key, flags, exptime, value)
	return err
}

// SetNoreply stores without waiting for a response (pipelined writes).
func (cl *Client) SetNoreply(key string, flags uint32, value []byte) error {
	cl.writeStorageHeader("set", key, flags, 0, len(value))
	_, _ = cl.w.WriteString(" noreply\r\n")
	_, _ = cl.w.Write(value)
	_, err := cl.w.WriteString(crlf)
	return err
}

// Add stores only if absent; reports whether it stored.
func (cl *Client) Add(key string, flags uint32, value []byte) (bool, error) {
	return cl.store("add", key, flags, 0, value)
}

// Replace stores only if present; reports whether it stored.
func (cl *Client) Replace(key string, flags uint32, value []byte) (bool, error) {
	return cl.store("replace", key, flags, 0, value)
}

// Append concatenates value after key's current data; reports whether it
// stored (false = key absent).
func (cl *Client) Append(key string, value []byte) (bool, error) {
	return cl.store("append", key, 0, 0, value)
}

// CasStatus is the outcome of a compare-and-swap.
type CasStatus int

const (
	// CasStored means the swap won.
	CasStored CasStatus = iota
	// CasExists means the unique was stale (someone stored in between).
	CasExists
	// CasNotFound means the key vanished.
	CasNotFound
)

// Cas stores key=value only if the server-side cas unique still equals
// cas (from a previous Gets).
func (cl *Client) Cas(key string, flags uint32, exptime int64, cas uint64, value []byte) (CasStatus, error) {
	cl.writeStorageHeader("cas", key, flags, exptime, len(value))
	_ = cl.w.WriteByte(' ')
	cl.writeUint(cas)
	_, _ = cl.w.WriteString(crlf)
	_, _ = cl.w.Write(value)
	_, _ = cl.w.WriteString(crlf)
	if err := cl.flush(); err != nil {
		return 0, err
	}
	resp, err := cl.lineBytes()
	if err != nil {
		return 0, err
	}
	switch string(resp) {
	case respStored:
		return CasStored, nil
	case respExists:
		return CasExists, nil
	case respNotFound:
		return CasNotFound, nil
	}
	return 0, fmt.Errorf("server: cas %q: %s", key, resp)
}

// Incr adds delta to key's numeric value, returning the new value; found
// is false when the key is absent.
func (cl *Client) Incr(key string, delta uint64) (val uint64, found bool, err error) {
	return cl.arith("incr", key, delta)
}

// Decr subtracts delta (clamping at 0), returning the new value.
func (cl *Client) Decr(key string, delta uint64) (val uint64, found bool, err error) {
	return cl.arith("decr", key, delta)
}

func (cl *Client) arith(cmd, key string, delta uint64) (uint64, bool, error) {
	_, _ = cl.w.WriteString(cmd)
	_ = cl.w.WriteByte(' ')
	_, _ = cl.w.WriteString(key)
	_ = cl.w.WriteByte(' ')
	cl.writeUint(delta)
	_, _ = cl.w.WriteString(crlf)
	if err := cl.flush(); err != nil {
		return 0, false, err
	}
	resp, err := cl.lineBytes()
	if err != nil {
		return 0, false, err
	}
	if string(resp) == respNotFound {
		return 0, false, nil
	}
	// A space-padded-decr server right-pads shrinking results; the
	// number is the digit prefix either way.
	v, ok := parseNumericValueB(resp)
	if !ok {
		return 0, false, fmt.Errorf("server: %s %q: %s", cmd, key, resp)
	}
	return v, true, nil
}

// Touch updates key's expiry without fetching it; reports whether the
// key was present.
func (cl *Client) Touch(key string, exptime int64) (bool, error) {
	_, _ = cl.w.WriteString("touch ")
	_, _ = cl.w.WriteString(key)
	_ = cl.w.WriteByte(' ')
	cl.writeInt(exptime)
	_, _ = cl.w.WriteString(crlf)
	if err := cl.flush(); err != nil {
		return false, err
	}
	resp, err := cl.lineBytes()
	if err != nil {
		return false, err
	}
	switch string(resp) {
	case respTouched:
		return true, nil
	case respNotFound:
		return false, nil
	}
	return false, fmt.Errorf("server: touch %q: %s", key, resp)
}

// Gat fetches key and updates its expiry in one command.
func (cl *Client) Gat(exptime int64, key string) (value []byte, flags uint32, ok bool, err error) {
	v, f, _, ok, err := cl.retrieve("gat", key, exptime, true)
	return v, f, ok, err
}

// Get fetches one key; ok is false on a miss. The returned value is
// backed by the client's scratch buffer and valid until the next
// retrieval.
func (cl *Client) Get(key string) (value []byte, flags uint32, ok bool, err error) {
	v, f, _, ok, err := cl.retrieve("get", key, 0, false)
	return v, f, ok, err
}

// Gets fetches one key with its cas unique.
func (cl *Client) Gets(key string) (value []byte, flags uint32, cas uint64, ok bool, err error) {
	return cl.retrieve("gets", key, 0, false)
}

func (cl *Client) retrieve(cmd, key string, exptime int64, withExp bool) (value []byte, flags uint32, cas uint64, ok bool, err error) {
	_, _ = cl.w.WriteString(cmd)
	if withExp {
		_ = cl.w.WriteByte(' ')
		cl.writeInt(exptime)
	}
	_ = cl.w.WriteByte(' ')
	_, _ = cl.w.WriteString(key)
	_, _ = cl.w.WriteString(crlf)
	if err = cl.flush(); err != nil {
		return
	}
	for {
		var resp []byte
		if resp, err = cl.lineBytes(); err != nil {
			return
		}
		if string(resp) == respEnd {
			return
		}
		// Header fields are parsed to scalars before the body read slides
		// the read buffer under them.
		cl.fields = tokenize(resp, cl.fields[:0])
		if len(cl.fields) < 4 || string(cl.fields[0]) != "VALUE" {
			err = fmt.Errorf("server: %s %q: %s", cmd, key, resp)
			return
		}
		var n uint64
		if n, err = parseUintB(cl.fields[3], 31); err != nil {
			err = fmt.Errorf("server: %s %q: bad byte count %q", cmd, key, cl.fields[3])
			return
		}
		f64, _ := parseUintB(cl.fields[2], 32)
		if len(cl.fields) >= 5 {
			cas, _ = parseUintB(cl.fields[4], 64)
		}
		if cap(cl.val) < int(n)+2 {
			cl.val = make([]byte, n+2)
		}
		buf := cl.val[:n+2]
		if _, err = io.ReadFull(cl.r, buf); err != nil {
			err = cl.fail(err)
			return
		}
		value, flags, ok = buf[:n], uint32(f64), true
	}
}

// Delete removes key; reports whether it existed.
func (cl *Client) Delete(key string) (bool, error) {
	_, _ = cl.w.WriteString("delete ")
	_, _ = cl.w.WriteString(key)
	_, _ = cl.w.WriteString(crlf)
	if err := cl.flush(); err != nil {
		return false, err
	}
	resp, err := cl.lineBytes()
	if err != nil {
		return false, err
	}
	switch string(resp) {
	case respDeleted:
		return true, nil
	case respNotFound:
		return false, nil
	}
	return false, fmt.Errorf("server: delete %q: %s", key, resp)
}

// FlushAll marks every currently stored value expired delay seconds
// from now (0 = immediately).
func (cl *Client) FlushAll(delay int64) error {
	if delay > 0 {
		fmt.Fprintf(cl.w, "flush_all %d\r\n", delay)
	} else {
		cl.w.WriteString("flush_all\r\n")
	}
	if err := cl.flush(); err != nil {
		return err
	}
	resp, err := cl.line()
	if err != nil {
		return err
	}
	if resp != respOK {
		return fmt.Errorf("server: flush_all: %s", resp)
	}
	return nil
}

// Stats returns the server's stats as a name→value map.
func (cl *Client) Stats() (map[string]string, error) {
	if _, err := cl.w.WriteString("stats\r\n"); err != nil {
		return nil, err
	}
	if err := cl.flush(); err != nil {
		return nil, err
	}
	out := make(map[string]string)
	for {
		resp, err := cl.line()
		if err != nil {
			return nil, err
		}
		if resp == respEnd {
			return out, nil
		}
		fields := strings.SplitN(resp, " ", 3)
		if len(fields) != 3 || fields[0] != "STAT" {
			return nil, fmt.Errorf("server: stats: %s", resp)
		}
		out[fields[1]] = fields[2]
	}
}

// Version returns the server's version string.
func (cl *Client) Version() (string, error) {
	if _, err := cl.w.WriteString("version\r\n"); err != nil {
		return "", err
	}
	if err := cl.flush(); err != nil {
		return "", err
	}
	resp, err := cl.line()
	if err != nil {
		return "", err
	}
	v, ok := strings.CutPrefix(resp, "VERSION ")
	if !ok {
		return "", fmt.Errorf("server: version: %s", resp)
	}
	return v, nil
}

// Flush drains any buffered noreply writes to the socket.
func (cl *Client) Flush() error { return cl.flush() }
