package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"
)

// ioTimeout bounds every socket read and write; tests shorten it.
var ioTimeout = 5 * time.Second

var errFraming = errors.New("reply does not parse")

// conn is the benchmark's own client for one connection: it writes a
// pre-rendered round trip, reads the replies and checks each against the
// op that asked for it. server.Client is product code and is not used.
type conn struct {
	id     int
	nc     net.Conn
	missOK bool
	buf    []byte
	r, w   int
	// For each key this connection owns (key / conns): the tag of the last
	// acknowledged write, 0 = never written, and how many there were.
	last, writes []uint32
	cursor       int // next round trip of the main stream
	broken       bool

	tally
	spans *spanLog // non-nil only in the traced segment
}

// tally counts what a connection did in one phase.
type tally struct {
	attempted, failed int64 // ops
	gets, hits        int64
	samples           []int64 // ns, one per round trip without a failed op
}

// add pools o's counts into t, and its samples if timed.
func (t *tally) add(o *tally, timed bool) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.gets += o.gets
	t.hits += o.hits
	if timed {
		t.samples = append(t.samples, o.samples...)
	}
}

func dial(addr string, id, keys int, missOK bool) (*conn, error) {
	nc, err := net.DialTimeout("tcp", addr, ioTimeout)
	if err != nil {
		return nil, err
	}
	n := (keys + conns - 1) / conns
	return &conn{id: id, nc: nc, missOK: missOK, buf: make([]byte, 64<<10),
		last: make([]uint32, n), writes: make([]uint32, n)}, nil
}

func (c *conn) close() { _ = c.nc.Close() }

// acked records that the server acknowledged the write o.
func (c *conn) acked(o op) {
	c.last[o.key/conns] = o.tag
	c.writes[o.key/conns]++
}

// fill blocks until n unread bytes are buffered.
func (c *conn) fill(n int) error {
	if n > len(c.buf) {
		return errFraming
	}
	if c.r+n > len(c.buf) {
		c.w = copy(c.buf, c.buf[c.r:c.w])
		c.r = 0
	}
	for c.w-c.r < n {
		m, err := c.nc.Read(c.buf[c.w:])
		c.w += m
		if err != nil && c.w-c.r < n {
			return err
		}
	}
	return nil
}

// line returns the next reply line without its CRLF.
func (c *conn) line() ([]byte, error) {
	for scanned := 0; ; {
		if i := bytes.IndexByte(c.buf[c.r+scanned:c.w], '\n'); i >= 0 {
			ln := c.buf[c.r : c.r+scanned+i]
			c.r += scanned + i + 1
			if len(ln) == 0 || ln[len(ln)-1] != '\r' {
				return nil, errFraming
			}
			return ln[:len(ln)-1], nil
		}
		scanned = c.w - c.r
		if err := c.fill(scanned + 1); err != nil {
			return nil, err
		}
	}
}

// roundTrip sends round trip i of s at now and checks every reply. It returns the
// number of ops that failed; an error means the connection is unusable and
// the ops not yet answered are among the failed.
func (c *conn) roundTrip(s *stream, i int, now time.Time) (failed int, err error) {
	req, ops := s.rt(i)
	c.attempted += int64(len(ops))
	if err := c.nc.SetDeadline(now.Add(ioTimeout)); err != nil {
		return len(ops), err
	}
	traced := c.spans != nil && i%traceEvery == 0
	if _, err := c.nc.Write(req); err != nil {
		return len(ops), err
	}
	if traced {
		c.spans.wrote(c.id, i, now, time.Now())
	}
	for j, o := range ops {
		ok, err := c.reply(o)
		if err != nil {
			return failed + len(ops) - j, err
		}
		if !ok {
			failed++
		}
	}
	if traced {
		c.spans.answered(c.id, time.Now())
	}
	return failed, nil
}

var (
	replyStored = []byte("STORED")
	replyEnd    = []byte("END")
	replyValue  = []byte("VALUE ")
)

// reply consumes and checks the reply to o.
func (c *conn) reply(o op) (bool, error) {
	ln, err := c.line()
	if err != nil {
		return false, err
	}
	own := int(o.key)%conns == c.id
	if o.set {
		if !bytes.Equal(ln, replyStored) {
			return false, nil // refused; one line, framing intact
		}
		c.acked(o)
		return true, nil
	}
	c.gets++
	if bytes.Equal(ln, replyEnd) {
		return c.missOK, nil
	}
	// VALUE <key> <flags> <bytes>
	if !bytes.HasPrefix(ln, replyValue) {
		return false, errFraming
	}
	f := bytes.Fields(ln[len(replyValue):])
	if len(f) != 3 {
		return false, errFraming
	}
	n := 0
	for _, d := range f[2] {
		if d < '0' || d > '9' || n > len(c.buf) {
			return false, errFraming
		}
		n = n*10 + int(d-'0')
	}
	key, keyOK := parseKey(f[0])
	if err := c.fill(n + 2); err != nil {
		return false, err
	}
	v := c.buf[c.r : c.r+n]
	c.r += n + 2
	if c.buf[c.r-2] != '\r' || c.buf[c.r-1] != '\n' {
		return false, errFraming
	}
	ok := keyOK && key == o.key && n > valHdr &&
		binary.LittleEndian.Uint32(v[0:]) == o.key &&
		binary.LittleEndian.Uint32(v[4:]) == uint32(n)
	if ok {
		tag := binary.LittleEndian.Uint32(v[8:])
		ok = v[valHdr] == fill(tag) && v[n-1] == fill(tag) && (!own || tag == c.last[o.key/conns])
	}
	if ln, err = c.line(); err != nil {
		return false, err
	}
	if !bytes.Equal(ln, replyEnd) {
		return false, errFraming
	}
	if ok {
		c.hits++
	}
	return ok, nil
}

// play sends every round trip of s once: set-up's preload and read-back.
func (c *conn) play(s *stream) error {
	for i := 0; i < s.rts(); i++ {
		failed, err := c.roundTrip(s, i, time.Now())
		c.failed += int64(failed)
		if err != nil {
			c.broken = true
			return fmt.Errorf("conn %d: %w", c.id, err)
		}
	}
	return nil
}

// drive cycles through the main stream until the deadline, timing each
// round trip. A round trip with a failed op enters no timing.
func (c *conn) drive(s *stream, until time.Time) {
	for !c.broken {
		t0 := time.Now()
		if !t0.Before(until) {
			return
		}
		failed, err := c.roundTrip(s, c.cursor, t0)
		d := time.Since(t0)
		c.cursor = (c.cursor + 1) % s.rts()
		c.failed += int64(failed)
		if err != nil {
			c.broken = true
			return
		}
		if failed == 0 {
			c.samples = append(c.samples, int64(d))
		}
	}
}
