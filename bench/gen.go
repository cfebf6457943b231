package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"strconv"
)

// A value is a 12-byte header — key index, total length, write tag, little
// endian — and a body filled with fill(tag). A reply is accepted only if
// key, length and the first and last body byte agree with the header, so a
// read torn by a concurrent move or served from the wrong slot fails.
const valHdr = 12

func fill(tag uint32) byte { return byte(tag*167 + 13) }

func appendValue(b []byte, key, tag uint32, size int) []byte {
	var h [valHdr]byte
	binary.LittleEndian.PutUint32(h[0:], key)
	binary.LittleEndian.PutUint32(h[4:], uint32(size))
	binary.LittleEndian.PutUint32(h[8:], tag)
	b = append(b, h[:]...)
	f := fill(tag)
	for i := valHdr; i < size; i++ {
		b = append(b, f)
	}
	return b
}

// Keys go over the wire as "k" and eight digits.
const keyLen = 9

func appendKey(b []byte, key uint32) []byte {
	b = append(b, 'k')
	for d := uint32(10000000); d > 0; d /= 10 {
		b = append(b, byte('0'+key/d%10))
	}
	return b
}

func parseKey(b []byte) (uint32, bool) {
	if len(b) != keyLen || b[0] != 'k' {
		return 0, false
	}
	var k uint32
	for _, c := range b[1:] {
		if c < '0' || c > '9' {
			return 0, false
		}
		k = k*10 + uint32(c-'0')
	}
	return k, true
}

// rng is splitmix64: the benchmark owns its generator so that a seed means
// the same bytes on every Go version.
type rng uint64

func (r *rng) next() uint64 {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// shuffle is Fisher-Yates over n elements.
func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

// zipf draws ranks in [0,n) with P(rank) ∝ 1/(rank+1)^θ (Gray et al., as in
// YCSB). Ranks are scrambled into keys by a seeded permutation, so the hot
// keys are spread over the key space, shards and owners.
type zipf struct {
	n                int
	theta, zetan     float64
	alpha, eta, half float64
}

const zipfTheta = 0.99

func newZipf(n int) zipf {
	z := zipf{n: n, theta: zipfTheta}
	for i := 1; i <= n; i++ {
		z.zetan += 1 / math.Pow(float64(i), z.theta)
	}
	zeta2 := 1 + math.Pow(0.5, z.theta)
	z.half = zeta2
	z.alpha = 1 / (1 - z.theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-z.theta)) / (1 - zeta2/z.zetan)
	return z
}

func (z *zipf) rank(r *rng) int {
	u := r.float()
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.half {
		return 1
	}
	k := int(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if k >= z.n {
		k = z.n - 1
	}
	return k
}

// op is what the client must know to check one reply.
type op struct {
	key  uint32
	tag  uint32 // of the value a SET carries
	size uint16 // of that value
	set  bool
}

// stream is a sequence of round trips rendered to wire bytes before anything
// is timed; the servers see only buf.
type stream struct {
	buf   []byte
	ops   []op
	rtEnd []int32 // end of round trip i in buf
	opEnd []int32 // end of round trip i in ops
}

func (s *stream) rts() int { return len(s.rtEnd) }

func (s *stream) rt(i int) ([]byte, []op) {
	var b0, o0 int32
	if i > 0 {
		b0, o0 = s.rtEnd[i-1], s.opEnd[i-1]
	}
	return s.buf[b0:s.rtEnd[i]], s.ops[o0:s.opEnd[i]]
}

func (s *stream) get(key uint32) {
	s.buf = append(s.buf, "get "...)
	s.buf = appendKey(s.buf, key)
	s.buf = append(s.buf, "\r\n"...)
	s.ops = append(s.ops, op{key: key})
}

func (s *stream) set(key, tag uint32, size int) {
	s.buf = append(s.buf, "set "...)
	s.buf = appendKey(s.buf, key)
	s.buf = append(s.buf, " 0 0 "...)
	s.buf = strconv.AppendInt(s.buf, int64(size), 10)
	s.buf = append(s.buf, "\r\n"...)
	s.buf = appendValue(s.buf, key, tag, size)
	s.buf = append(s.buf, "\r\n"...)
	s.ops = append(s.ops, op{key: key, tag: tag, size: uint16(size), set: true})
}

func (s *stream) endRT() {
	s.rtEnd = append(s.rtEnd, int32(len(s.buf)))
	s.opEnd = append(s.opEnd, int32(len(s.ops)))
}

// Set-up moves 64 ops per round trip; preloaded values carry tag 1 and
// stream writes count up from 2, so 0 can mean "never written".
const (
	setupDepth = 64
	preloadTag = 1
)

// connStreams is everything one connection will ever send.
type connStreams struct {
	preload, readback, main stream
}

type streams struct {
	conn [conns]connStreams
}

// render makes every byte the run will send from wl and seed alone.
func render(wl workload, seed uint64) *streams {
	st := &streams{}
	root := rng(seed)
	// perm[rank] = key; owned[c] lists c's keys, hottest first.
	perm := make([]uint32, wl.keys)
	for i := range perm {
		perm[i] = uint32(i)
	}
	root.shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
	var owned [conns][]uint32
	for _, k := range perm {
		owned[k%conns] = append(owned[k%conns], k)
	}
	span := wl.maxSize - wl.minSize + 1
	for _, k := range perm[:wl.preload] {
		cs := &st.conn[k%conns]
		cs.preload.set(k, preloadTag, wl.minSize+root.intn(span))
		cs.readback.get(k)
		if len(cs.preload.ops)%setupDepth == 0 {
			cs.preload.endRT()
			cs.readback.endRT()
		}
	}
	z := newZipf(wl.keys)
	for c := range st.conn {
		cs := &st.conn[c]
		if len(cs.preload.ops)%setupDepth != 0 {
			cs.preload.endRT()
			cs.readback.endRT()
		}
		r := rng(root.next())
		tag := uint32(preloadTag)
		for i := 0; i < wl.pool; i++ {
			for j := 0; j < wl.depth; j++ {
				rank := z.rank(&r)
				if r.intn(100) < wl.setPct {
					// The own key of about the same heat: c owns every
					// conns-th key of the ranking on average.
					mine := owned[c]
					tag++
					cs.main.set(mine[min(rank/conns, len(mine)-1)], tag, wl.minSize+r.intn(span))
				} else {
					cs.main.get(perm[rank])
				}
			}
			cs.main.endRT()
		}
	}
	return st
}

// fingerprint identifies the rendered bytes: same seed, same fingerprint.
func (st *streams) fingerprint() uint64 {
	h := fnv.New64a()
	for c := range st.conn {
		for _, s := range []*stream{&st.conn[c].preload, &st.conn[c].readback, &st.conn[c].main} {
			h.Write(s.buf)
		}
	}
	return h.Sum64()
}
