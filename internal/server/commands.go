package server

import (
	"errors"
	"fmt"
	"math/bits"
	"strconv"
	"time"

	"alaska/internal/kv"
	"alaska/internal/logx"
)

// foldCall records one process() call: its n commands and its time d, from
// just before its first dispatch to the end of its last command's reply
// generation. Each command is one observation of d/n in the engine's stripe
// (the per-opcode recorders; the all-opcodes aggregate is their sum, made
// by foldLatency) — one RecordN per opcode the call ran — so every count is
// exact and the sum is d less the division's remainder (under n ns), and a
// one-command call is timed exactly as that command. A call whose d reaches
// the slow threshold is one slow-op entry: the first command's opcode and
// key prefix, the call's d, stamped with that command's time at. Atomics
// and fixed arrays only — the allocation guards run this exact path.
//
// d never covers a client's think time, on either transport: a command is
// dispatched, timed and given its time only once its whole frame (line and
// data block) is buffered.
func (e *engine) foldCall(d time.Duration, n int, at time.Time) {
	share := d / time.Duration(n)
	for m := e.seen; m != 0; m &= m - 1 {
		op := bits.TrailingZeros16(m)
		e.stripe[op].RecordN(share, int64(e.tally[op]))
		e.tally[op] = 0
	}
	e.seen = 0
	if s := e.srv; s.slowThreshNs > 0 && d.Nanoseconds() >= s.slowThreshNs {
		s.slowOps.record(e.firstCmd, e.opKey[:e.opKeyLen], d, e.pc.id, at)
	}
}

func (e *engine) reply(line string) error {
	if err := e.writeString(line); err != nil {
		return err
	}
	return e.writeString(crlf)
}

// replyError counts a protocol error and sends the error line.
func (e *engine) replyError(line string) error {
	e.srv.protocolErrors.Add(1)
	return e.reply(line)
}

// cmdCode labels a command for the per-opcode latency histograms and
// the slow-op ring, and names the storage command doStore is running.
type cmdCode uint8

const (
	cmdGet cmdCode = iota
	cmdGat
	cmdSet
	cmdAdd
	cmdReplace
	cmdCas
	cmdAppend
	cmdPrepend
	cmdIncr
	cmdDecr
	cmdDelete
	cmdTouch
	cmdFlushAll
	cmdStats
	cmdOther // version, verbosity, quit, protocol errors
	cmdCount
)

// cmdNames are the wire/metric labels, indexed by cmdCode.
var cmdNames = [cmdCount]string{
	"get", "gat", "set", "add", "replace", "cas", "append", "prepend",
	"incr", "decr", "delete", "touch", "flush_all", "stats", "other",
}

// noteOp records the dispatched opcode for the call's tally and, for the
// call's first command, the opcode and a fixed-size key prefix for the
// slow-op ring — one copy per call. key aliases the input buffer; the copy
// into the engine-owned array is what lets the slow-op ring reference it
// later without holding (or allocating) request memory.
func (e *engine) noteOp(code cmdCode, key []byte) {
	e.lastCmd = code
	if e.seen == 0 {
		e.firstCmd = code
		e.opKeyLen = uint8(copy(e.opKey[:], key))
	}
}

// firstKey returns the leading argument (the key for single- and
// multi-key commands alike), or nil for a bare command.
func firstKey(args [][]byte) []byte {
	if len(args) > 0 {
		return args[0]
	}
	return nil
}

// dispatch executes one tokenized command that is not a well-formed
// storage command — the engine's dispatchBuffered, its only caller, runs
// those itself (doStore). The returned error is an I/O failure (drop the
// connection); protocol errors are answered in-band. fields alias the
// input buffer.
func (e *engine) dispatch(fields [][]byte) (quit bool, err error) {
	if len(fields) == 0 {
		e.noteOp(cmdOther, nil)
		return false, e.replyError(respError)
	}
	cmd, args := fields[0], fields[1:]
	switch string(cmd) { // compiles to allocation-free comparisons
	case "get", "gets":
		e.noteOp(cmdGet, firstKey(args))
		return false, e.doGet(args, len(cmd) == 4)
	case "gat", "gats":
		// args[0] is the exptime; the first key follows it.
		e.noteOp(cmdGat, firstKey(args[min(len(args), 1):]))
		return false, e.doGat(args, len(cmd) == 4)
	case "set", "add", "replace", "cas", "append", "prepend":
		// Malformed, or parseStorageLine would have claimed it: no data
		// block was waited for and none is read.
		code, _ := storageCmd(cmd)
		e.noteOp(code, firstKey(args))
		return false, e.replyError(respBadFormat)
	case "incr", "decr":
		if cmd[0] == 'i' {
			e.noteOp(cmdIncr, firstKey(args))
		} else {
			e.noteOp(cmdDecr, firstKey(args))
		}
		return false, e.doIncrDecr(args, cmd[0] == 'i')
	case "delete":
		e.noteOp(cmdDelete, firstKey(args))
		return false, e.doDelete(args)
	case "touch":
		e.noteOp(cmdTouch, firstKey(args))
		return false, e.doTouch(args)
	case "flush_all":
		e.noteOp(cmdFlushAll, nil)
		return false, e.doFlushAll(args)
	case "verbosity":
		e.noteOp(cmdOther, nil)
		return false, e.doVerbosity(args)
	case "stats":
		e.noteOp(cmdStats, nil)
		return false, e.doStats(args)
	case "version":
		e.noteOp(cmdOther, nil)
		return false, e.reply("VERSION " + e.srv.cfg.Version)
	case "quit":
		e.noteOp(cmdOther, nil)
		return true, nil
	default:
		e.noteOp(cmdOther, nil)
		return false, e.replyError(respError)
	}
}

// emitValue writes one VALUE line (+ data block) for a stored
// representation, decoding the flags/cas header. The header line is
// assembled in the engine's hdr scratch and the data region is
// appended straight to the reply buffer — a hit serializes with zero
// allocation. ok is false when the header failed to decode: the
// SERVER_ERROR line has already been sent and the caller must abort the
// retrieval (no further VALUEs, no END) — interleaving an error line
// between VALUE blocks would be unframeable.
func (e *engine) emitValue(key []byte, stored []byte, withCAS bool) (ok bool, err error) {
	flags, cas, data, derr := decodeValue(stored)
	if derr != nil {
		return false, e.replyError("SERVER_ERROR " + derr.Error())
	}
	hdr := append(e.hdr[:0], "VALUE "...)
	hdr = append(hdr, key...)
	hdr = append(hdr, ' ')
	hdr = strconv.AppendUint(hdr, uint64(flags), 10)
	hdr = append(hdr, ' ')
	hdr = strconv.AppendUint(hdr, uint64(len(data)), 10)
	if withCAS {
		hdr = append(hdr, ' ')
		hdr = strconv.AppendUint(hdr, cas, 10)
	}
	hdr = append(hdr, crlf...)
	e.hdr = hdr
	if err := e.writeFull(hdr); err != nil {
		return false, err
	}
	if err := e.writeFull(data); err != nil {
		return false, err
	}
	return true, e.writeString(crlf)
}

func (e *engine) doGet(keys [][]byte, withCAS bool) error {
	if len(keys) == 0 {
		return e.replyError(respBadFormat)
	}
	for _, key := range keys {
		if !validKeyB(key) {
			return e.replyError(respBadFormat)
		}
		stored, hit, err := e.srv.store.GetIntoAt(e.sess, key, e.val[:0], e.now)
		if cap(stored) > cap(e.val) {
			e.val = stored // keep the grown scratch for the next hit
		}
		if err != nil {
			return e.replyError("SERVER_ERROR " + err.Error())
		}
		if !hit {
			continue // miss: omitted from the response
		}
		ok, err := e.emitValue(key, stored, withCAS)
		if err != nil || !ok {
			return err
		}
	}
	return e.reply(respEnd)
}

// doGat is get-and-touch: retrieval that also moves each hit key's expiry
// deadline, as one critical section per key.
func (e *engine) doGat(args [][]byte, withCAS bool) error {
	exptime, keys, perr := parseGatB(args)
	if perr != nil {
		return e.replyError(respBadFormat)
	}
	deadline := deadlineFor(exptime, e.now)
	for _, key := range keys {
		stored, hit, err := e.srv.store.GetAndTouchInto(e.sess, key, deadline, e.val[:0], e.now)
		if cap(stored) > cap(e.val) {
			e.val = stored
		}
		if err != nil {
			return e.replyError("SERVER_ERROR " + err.Error())
		}
		if !hit {
			continue
		}
		ok, err := e.emitValue(key, stored, withCAS)
		if err != nil || !ok {
			return err
		}
	}
	return e.reply(respEnd)
}

// doStore runs the storage command op with the arguments the engine
// parsed off its line (parseStorageLine), once the whole data block is
// buffered. An oversized value never gets here: the engine turns it into
// the discard framing state instead.
func (e *engine) doStore(op cmdCode, sa storageArgsB) error {
	data, ok, err := e.readBody(sa.nbytes)
	if err != nil {
		return err
	}
	if !ok {
		// The data block wasn't CRLF-terminated: the stream is desynced.
		// Report and have the framing layer drop input through the next
		// newline, memcached-style. It discards rather than buffers — the
		// desynced remainder is client-controlled and may be huge — and a
		// client that goes quiet here gets the error flushed before the
		// transport waits for more.
		e.pc.resync = true
		return e.replyError(respBadChunk)
	}
	resp, errLine, err := e.executeStore(op, sa, data)
	if err != nil {
		if sa.noreply {
			e.srv.protocolErrors.Add(1)
			return nil
		}
		// A value that cannot fit under the memory ceiling at all is
		// its own canonical line, whatever the command.
		if errors.Is(err, kv.ErrTooLarge) {
			return e.replyError(respTooLarge)
		}
		// Plain stores fail on allocation (memcached's canonical line);
		// an RMW failure may equally be a read fault mid-Apply, so
		// surface the real error there.
		if op == cmdSet || op == cmdAdd || op == cmdReplace {
			return e.replyError(respOutOfMemory)
		}
		return e.replyError("SERVER_ERROR " + err.Error())
	}
	if sa.noreply {
		if errLine {
			e.srv.protocolErrors.Add(1)
		}
		return nil
	}
	if errLine {
		return e.replyError(resp)
	}
	return e.reply(resp)
}

// executeStore runs a parsed storage command against the store and
// returns the response line; errLine marks an in-band error reply
// (oversized concatenation, header decode failure) that must be counted
// in protocol_errors. Every variant consumes a fresh cas unique: any
// successful store makes previously handed-out uniques stale, which is
// exactly the cas contract.
//
// Write-back values are encoded into the connection's val2 scratch (the
// RMW old value lives in val), so the whole family — plain stores, cas,
// append/prepend — stores without allocating.
func (e *engine) executeStore(op cmdCode, sa storageArgsB, data []byte) (resp string, errLine bool, err error) {
	newCas := e.srv.casCounter.Add(1)
	deadline := deadlineFor(sa.exptime, e.now)
	switch op {
	case cmdSet, cmdAdd, cmdReplace:
		mode := kv.SetAlways
		switch op {
		case cmdAdd:
			mode = kv.SetAdd
		case cmdReplace:
			mode = kv.SetReplace
		}
		e.val2 = appendValue(e.val2[:0], sa.flags, newCas, data)
		stored, serr := e.srv.store.SetExBytesAt(e.sess, sa.key, e.val2, mode, deadline, e.now)
		if serr != nil {
			return "", false, serr
		}
		if stored {
			return respStored, false, nil
		}
		return respNotStored, false, nil
	case cmdCas:
		// Compare the stored unique and swap under the shard lock: the
		// read, the comparison, and the write-back are one critical
		// section, so exactly one of N racing cas commands with the same
		// unique can win.
		resp = respStored
		e.val, err = e.srv.store.ApplyInto(e.sess, sa.key, e.val, e.now, func(old []byte, found bool) kv.ApplyOp {
			if !found {
				resp = respNotFound
				return kv.ApplyOp{Stat: kv.StatCasMiss}
			}
			_, oldCas, _, derr := decodeValue(old)
			if derr != nil {
				resp, errLine = "SERVER_ERROR "+derr.Error(), true
				return kv.ApplyOp{}
			}
			if oldCas != sa.casUnique {
				resp = respExists
				return kv.ApplyOp{Stat: kv.StatCasBadval}
			}
			e.val2 = appendValue(e.val2[:0], sa.flags, newCas, data)
			return kv.ApplyOp{
				Verdict: kv.ApplyStore,
				Value:   e.val2,
				Expire:  deadline,
				Stat:    kv.StatCasHit,
			}
		})
		return resp, errLine, err
	case cmdAppend, cmdPrepend:
		// Concatenation keeps the original flags and TTL (memcached
		// ignores the flags/exptime arguments of append/prepend) but
		// issues a new cas unique.
		resp = respStored
		e.val, err = e.srv.store.ApplyInto(e.sess, sa.key, e.val, e.now, func(old []byte, found bool) kv.ApplyOp {
			if !found {
				resp = respNotStored
				return kv.ApplyOp{}
			}
			oldFlags, _, oldData, derr := decodeValue(old)
			if derr != nil {
				resp, errLine = "SERVER_ERROR "+derr.Error(), true
				return kv.ApplyOp{}
			}
			// The merged body must respect the item size cap too: each
			// append individually fitting must not let an item grow
			// without bound (memcached rejects the concatenation the
			// same way).
			if len(oldData)+len(data) > e.srv.cfg.MaxValueSize {
				resp, errLine = respTooLarge, true
				return kv.ApplyOp{}
			}
			e.val2 = appendValue(e.val2[:0], oldFlags, newCas, nil)
			if op == cmdAppend {
				e.val2 = append(append(e.val2, oldData...), data...)
			} else {
				e.val2 = append(append(e.val2, data...), oldData...)
			}
			return kv.ApplyOp{
				Verdict:    kv.ApplyStore,
				Value:      e.val2,
				KeepExpire: true,
			}
		})
		return resp, errLine, err
	}
	return "", false, fmt.Errorf("server: unreachable storage command %q", cmdNames[op])
}

// doIncrDecr implements incr/decr: 64-bit unsigned arithmetic on the
// decimal value, read-modify-write as one critical section. incr wraps at
// 2^64; decr clamps at 0 (memcached's underflow rule). The new value
// keeps the item's flags and TTL but gets a fresh cas unique. The result
// digits are formatted once into the hdr scratch and serve as both the
// write-back body and the reply — no allocation on a hit. With
// SpacePaddedDecr, a shrinking decr result is stored right-padded with
// spaces to the old value's length (memcached's classic in-place-update
// artifact, visible to a subsequent get) while the reply stays the bare
// number, exactly like memcached's out_string path.
func (e *engine) doIncrDecr(args [][]byte, incr bool) error {
	key, delta, noreply, perr := parseIncrDecrB(args)
	if perr == errBadDelta {
		if noreply {
			e.srv.protocolErrors.Add(1)
			return nil
		}
		return e.replyError(respBadDelta)
	}
	if perr != nil {
		return e.replyError(respBadFormat)
	}
	newCas := e.srv.casCounter.Add(1)
	hitStat, missStat := kv.StatIncrHit, kv.StatIncrMiss
	if !incr {
		hitStat, missStat = kv.StatDecrHit, kv.StatDecrMiss
	}
	var errResp string // in-band error line ("" = e.hdr carries the reply)
	found := true
	var err error
	e.val, err = e.srv.store.ApplyInto(e.sess, key, e.val, e.now, func(old []byte, ok bool) kv.ApplyOp {
		if !ok {
			found = false
			return kv.ApplyOp{Stat: missStat}
		}
		flags, _, data, derr := decodeValue(old)
		if derr != nil {
			errResp = "SERVER_ERROR " + derr.Error()
			return kv.ApplyOp{}
		}
		val, numeric := parseNumericValueB(data)
		if !numeric {
			errResp = respNonNumeric
			return kv.ApplyOp{}
		}
		var next uint64
		if incr {
			next = val + delta // wraps modulo 2^64, like memcached
		} else if delta > val {
			next = 0 // underflow clamps
		} else {
			next = val - delta
		}
		e.hdr = strconv.AppendUint(e.hdr[:0], next, 10)
		e.val2 = appendValue(e.val2[:0], flags, newCas, e.hdr)
		if !incr && e.srv.cfg.SpacePaddedDecr {
			// memcached-classic: the stored value keeps the old length,
			// right-padded with spaces (the in-place-update artifact a
			// subsequent get exposes); the reply is the bare number.
			for len(e.val2)-valueHeaderLen < len(data) {
				e.val2 = append(e.val2, ' ')
			}
		}
		return kv.ApplyOp{
			Verdict:    kv.ApplyStore,
			Value:      e.val2,
			KeepExpire: true,
			Stat:       hitStat,
		}
	})
	if err != nil {
		// An Apply failure here is a read or write-back fault, not
		// necessarily memory pressure: surface the real error.
		if noreply {
			e.srv.protocolErrors.Add(1)
			return nil
		}
		return e.replyError("SERVER_ERROR " + err.Error())
	}
	if noreply {
		if errResp != "" {
			e.srv.protocolErrors.Add(1)
		}
		return nil
	}
	if errResp != "" {
		return e.replyError(errResp)
	}
	if !found {
		return e.reply(respNotFound)
	}
	if werr := e.writeFull(e.hdr); werr != nil {
		return werr
	}
	return e.writeString(crlf)
}

// doTouch updates a key's expiry deadline without touching its value.
func (e *engine) doTouch(args [][]byte) error {
	key, exptime, noreply, perr := parseTouchB(args)
	if perr != nil {
		return e.replyError(respBadFormat)
	}
	deadline := deadlineFor(exptime, e.now)
	found, err := e.srv.store.TouchBytes(e.sess, key, deadline, e.now)
	if err != nil {
		return e.replyError("SERVER_ERROR " + err.Error())
	}
	if noreply {
		return nil
	}
	if found {
		return e.reply(respTouched)
	}
	return e.reply(respNotFound)
}

func (e *engine) doDelete(args [][]byte) error {
	key, noreply, perr := parseDeleteB(args)
	if perr != nil {
		return e.replyError(respBadFormat)
	}
	existed, err := e.srv.store.DelBytes(e.sess, key, e.now)
	if err != nil {
		return e.replyError("SERVER_ERROR " + err.Error())
	}
	if noreply {
		return nil
	}
	if existed {
		return e.reply(respDeleted)
	}
	return e.reply(respNotFound)
}

// doFlushAll implements `flush_all [delay] [noreply]`: a store-wide
// expiry epoch. Every value stored before now+delay is dead once the
// clock reaches that moment, honored by the same lazy-expiry paths as
// per-entry TTLs (plus one reclamation sweep by Maintain after the epoch
// passes), so the command is O(1) regardless of item count.
func (e *engine) doFlushAll(args [][]byte) error {
	delay, noreply, perr := parseFlushAllB(args)
	if perr != nil {
		return e.replyError(respBadFormat)
	}
	at := e.now
	if delay > 0 {
		// The delay follows the exptime rules: relative seconds up to 30
		// days, an absolute unix timestamp beyond.
		at = deadlineFor(delay, e.now)
	}
	e.srv.store.FlushAll(at)
	e.srv.cmdFlush.Add(1)
	if noreply {
		return nil
	}
	return e.reply(respOK)
}

// doVerbosity implements `verbosity <level> [noreply]`, wired to the
// server's leveled logger: 0 = errors only, 1 = info, 2+ = per-connection
// debug. With no logger configured the level is parsed for conformance
// and dropped, which is how most memcached deployments treat the
// command anyway.
func (e *engine) doVerbosity(args [][]byte) error {
	level, noreply, perr := parseVerbosityB(args)
	if perr != nil {
		return e.replyError(respBadFormat)
	}
	switch {
	case level == 0:
		e.srv.cfg.Logger.SetLevel(logx.LevelError)
	case level == 1:
		e.srv.cfg.Logger.SetLevel(logx.LevelInfo)
	default:
		e.srv.cfg.Logger.SetLevel(logx.LevelDebug)
	}
	if noreply {
		return nil
	}
	return e.reply(respOK)
}

func (e *engine) doStats(args [][]byte) error {
	if len(args) > 0 {
		if len(args) == 1 {
			switch string(args[0]) {
			case "items":
				return e.doStatsItems()
			case "reset":
				e.srv.ResetStats()
				return e.reply(respReset)
			case "slow":
				return e.doStatsSlow()
			}
		}
		// Unknown stats sub-command: memcached answers ERROR.
		return e.replyError(respError)
	}
	if e.view == nil {
		e.view = new(statView)
	}
	e.srv.readStats(e.view)
	e.hdr = e.srv.appendStats(e.hdr[:0], e.view)
	if err := e.writeFull(e.hdr); err != nil {
		return err
	}
	return e.reply(respEnd)
}

// doStatsSlow renders the slow-op ring, newest first: one row set per
// captured op with its command, key prefix, latency, connection id,
// and age. The reporting path allocates freely — only recording is on
// the hot path.
func (e *engine) doStatsSlow() error {
	for i, op := range e.srv.SlowOps() {
		p := fmt.Sprintf("STAT slow:%d:", i)
		lines := []string{
			p + "cmd " + op.Cmd,
			p + "key " + op.Key,
			fmt.Sprintf("%slatency_us %.1f", p, float64(op.Latency.Nanoseconds())/1e3),
			fmt.Sprintf("%sconn %d", p, op.ConnID),
			fmt.Sprintf("%sage_s %.1f", p, e.now.Sub(op.When).Seconds()),
		}
		for _, l := range lines {
			if err := e.reply(l); err != nil {
				return err
			}
		}
	}
	return e.reply(respEnd)
}

// doStatsItems emits `stats items`-style per-shard accounting: one row
// set per shard (the closest analogue of memcached's per-slab-class
// item stats), covering live counts, charged bytes, LRU-tail age, and
// the pressure counters.
func (e *engine) doStatsItems() error {
	for i, row := range e.srv.store.ItemsSnapshot() {
		p := fmt.Sprintf("STAT items:%d:", i)
		lines := []string{
			fmt.Sprintf("%snumber %d", p, row.Number),
			fmt.Sprintf("%sbytes %d", p, row.Bytes),
			fmt.Sprintf("%sage %.0f", p, row.AgeSeconds),
			fmt.Sprintf("%snumber_with_ttl %d", p, row.NumberWithTTL),
			fmt.Sprintf("%snumber_fetched %d", p, row.NumberFetched),
			fmt.Sprintf("%sevicted %d", p, row.Evictions),
			fmt.Sprintf("%sevicted_unfetched %d", p, row.EvictedUnfetched),
			fmt.Sprintf("%sreclaimed %d", p, row.Reclaimed),
			fmt.Sprintf("%sexpired %d", p, row.Expired),
		}
		for _, l := range lines {
			if err := e.reply(l); err != nil {
				return err
			}
		}
	}
	return e.reply(respEnd)
}
