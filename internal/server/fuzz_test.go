package server

// FuzzParseCommand fuzzes the zero-alloc ASCII command parsers with
// arbitrary lines — torn commands, huge integers, embedded CR/LF,
// over-long keys — seeded from the golden conformance transcripts. The
// invariants: no parser panics, and no parser ever *accepts* an illegal
// key (the 250-byte/no-whitespace/no-control rule), a negative byte
// count, or an exptime the deadline converter can't normalize.
//
// FuzzTokenizeDifferential holds the zero-alloc tokenizer and byte
// parsers to the legacy strings.Fields/strconv reference path in
// protocol_ref_test.go: same fields, same parse verdicts, same CLIENT_ERROR
// classification, over the same seed corpus.

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"alaska/internal/kv"
)

// parserFuzzSeeds is the shared corpus of both fuzzers: golden
// transcript lines plus torn/adversarial shapes.
var parserFuzzSeeds = []string{
	"set foo 42 0 5",
	"set quiet 0 0 2 noreply",
	"add fresh 7 0 2",
	"replace nosuch 0 0 2",
	"cas n 1 0 1 1",
	"cas n 0 0 1 2 noreply",
	"append s 0 0 2",
	"prepend s 7 100 2",
	"incr n 18446744073709551615",
	"incr n xyz",
	"decr miss 1 noreply",
	"delete foo",
	"delete quiet noreply",
	"touch k -1",
	"touch k2 -1 noreply",
	"gat 100 g1 miss g2",
	"gats 100 g1",
	"get " + strings.Repeat("k", 250),
	"get " + strings.Repeat("k", 251),
	"set k 0 99999999999999999999 1",
	"set k 0 -9223372036854775808 1",
	"set k 0 2592001 4294967295",
	"set k +0 0 1",
	"set k 0 +30 1",
	"incr k -5",
	"incr k +5",
	"touch k 9223372036854775807",
	"gat -1",
	"cas k 1 2 3",
	"set",
	"",
	"set k\r\n0 0 5",
	"set k\x00 0 0 5",
	"incr \x7f 1",
	"flush_all",
	"flush_all 100",
	"flush_all 0 noreply",
	"flush_all 2592001",
	"flush_all -1",
	"flush_all 9223372036854775808",
	"verbosity 1",
	"verbosity 2 noreply",
	"verbosity",
	"verbosity abc",
	// Over-length lines: the engine must reject these without buffering,
	// and the parsers must stay panic-free on what slips through as
	// fields.
	"get " + strings.Repeat("a", 4096),
	"set " + strings.Repeat("b", 3000) + " 0 0 5",
	strings.Repeat("c", 5000),
}

func FuzzParseCommand(f *testing.F) {
	for _, s := range parserFuzzSeeds {
		f.Add(s)
	}
	now := time.Unix(1_700_000_000, 0)
	const maxLine, maxVal = 64, 8
	e := detachedEngine(New(kv.NewShardedStore(kv.NewMallocBackend(), 1, 0), Config{
		MaxLineLen: maxLine, MaxValueSize: maxVal, MaxReplyBacklog: -1, ConnModel: "goroutine",
	}))
	f.Fuzz(func(t *testing.T, line string) {
		// However a line dribbles in (7-byte reads force the multi-fragment
		// path), process() never holds more than a legal line plus a legal
		// data block, and an over-length first line is answered, not
		// buffered.
		e.begin(&pollConn{fd: -1})
		for in := line + "\n"; len(in) > 0; {
			n := copy(e.readBuf()[:7], in)
			e.extend(n)
			in = in[n:]
			cmds := 0
			if st := e.process(&cmds); st == evQuit || st == evFatal {
				break
			}
			if held := len(e.in) - e.rpos; held > maxLine+2+maxVal+2 {
				t.Fatalf("process holds %d unconsumed bytes of %q, past the %d-byte line cap", held, line, maxLine)
			}
		}
		if first, _, _ := strings.Cut(line, "\n"); len(first) > maxLine+1 && !bytes.HasPrefix(e.out, []byte(respLineTooLong+crlf)) {
			t.Errorf("over-length line %q answered %q, want %s first", line, e.out, respLineTooLong)
		}
		fields := tokenize([]byte(line), nil)
		if len(fields) == 0 {
			return
		}
		mustBeValid := func(key []byte) {
			if !validKeyB(key) {
				t.Errorf("parser accepted illegal key %q from line %q", key, line)
			}
		}
		cmd, args := fields[0], fields[1:]
		switch string(cmd) {
		case "set", "add", "replace", "append", "prepend", "cas":
			sa, err := parseStorageB(args, string(cmd) == "cas")
			if err == nil {
				mustBeValid(sa.key)
				if sa.nbytes < 0 {
					t.Errorf("parser accepted negative byte count %d from %q", sa.nbytes, line)
				}
				deadlineFor(sa.exptime, now) // must not panic
			}
		case "incr", "decr":
			key, _, _, err := parseIncrDecrB(args)
			// errBadDelta still carries a validated key (the command line
			// itself was well-formed).
			if err == nil || err == errBadDelta {
				mustBeValid(key)
			}
		case "delete":
			key, _, err := parseDeleteB(args)
			if err == nil {
				mustBeValid(key)
			}
		case "touch":
			key, exptime, _, err := parseTouchB(args)
			if err == nil {
				mustBeValid(key)
				deadlineFor(exptime, now)
			}
		case "gat", "gats":
			exptime, keys, err := parseGatB(args)
			if err == nil {
				if len(keys) == 0 {
					t.Errorf("parseGatB accepted a keyless line %q", line)
				}
				for _, k := range keys {
					mustBeValid(k)
				}
				deadlineFor(exptime, now)
			}
		case "flush_all":
			delay, _, err := parseFlushAllB(args)
			if err == nil {
				if delay < 0 {
					t.Errorf("parseFlushAllB accepted negative delay %d from %q", delay, line)
				}
				deadlineFor(delay, now)
			}
		case "verbosity":
			_, _, _ = parseVerbosityB(args) // must not panic
		case "get", "gets":
			// Retrieval keys are validated in the handler, not a parser;
			// exercise the validator directly.
			for _, k := range args {
				validKeyB(k)
			}
		}
	})
}

// isASCIIBytes reports whether every byte is < 0x80. The byte tokenizer
// intentionally diverges from strings.Fields on multi-byte UTF-8
// whitespace (memcached splits on ASCII whitespace only), so the
// differential holds only over ASCII input.
func isASCIIBytes(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= 0x80 {
			return false
		}
	}
	return true
}

// FuzzTokenizeDifferential proves the zero-alloc tokenizer and byte
// parsers agree with the legacy string path on every ASCII input: same
// fields, and for every command the same accept/reject verdict, the
// same CLIENT_ERROR classification (bad-format vs bad-delta), and the
// same parsed scalars.
func FuzzTokenizeDifferential(f *testing.F) {
	for _, s := range parserFuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, line string) {
		if !isASCIIBytes(line) {
			return
		}
		ref := splitCommand(line)
		got := tokenize([]byte(line), nil)
		if len(ref) != len(got) {
			t.Fatalf("tokenize: %d fields, strings.Fields: %d, from %q", len(got), len(ref), line)
		}
		for i := range ref {
			if ref[i] != string(got[i]) {
				t.Fatalf("field %d: tokenize %q, strings.Fields %q, from %q", i, got[i], ref[i], line)
			}
		}
		if len(ref) == 0 {
			return
		}
		cmd, refArgs, gotArgs := ref[0], ref[1:], got[1:]
		switch cmd {
		case "set", "add", "replace", "append", "prepend", "cas":
			rsa, rerr := parseStorage(refArgs, cmd == "cas")
			gsa, gerr := parseStorageB(gotArgs, cmd == "cas")
			if (rerr == nil) != (gerr == nil) {
				t.Fatalf("storage verdict: ref err=%v, byte err=%v, from %q", rerr, gerr, line)
			}
			if rerr == nil {
				if rsa.key != string(gsa.key) || rsa.flags != gsa.flags ||
					rsa.exptime != gsa.exptime || rsa.nbytes != gsa.nbytes ||
					rsa.casUnique != gsa.casUnique || rsa.noreply != gsa.noreply {
					t.Fatalf("storage args diverge: ref %+v, byte %+v, from %q", rsa, gsa, line)
				}
			}
		case "incr", "decr":
			rkey, rdelta, rnr, rerr := parseIncrDecr(refArgs)
			gkey, gdelta, gnr, gerr := parseIncrDecrB(gotArgs)
			if rerr != gerr { // errBadLine vs errBadDelta classification must match exactly
				t.Fatalf("incr verdict: ref %v, byte %v, from %q", rerr, gerr, line)
			}
			if rerr == nil && (rkey != string(gkey) || rdelta != gdelta || rnr != gnr) {
				t.Fatalf("incr args diverge from %q", line)
			}
		case "delete":
			rkey, rnr, rerr := parseDelete(refArgs)
			gkey, gnr, gerr := parseDeleteB(gotArgs)
			if (rerr == nil) != (gerr == nil) || (rerr == nil && (rkey != string(gkey) || rnr != gnr)) {
				t.Fatalf("delete diverges: ref (%q,%v,%v) byte (%q,%v,%v) from %q", rkey, rnr, rerr, gkey, gnr, gerr, line)
			}
		case "touch":
			rkey, rexp, rnr, rerr := parseTouch(refArgs)
			gkey, gexp, gnr, gerr := parseTouchB(gotArgs)
			if (rerr == nil) != (gerr == nil) || (rerr == nil && (rkey != string(gkey) || rexp != gexp || rnr != gnr)) {
				t.Fatalf("touch diverges from %q", line)
			}
		case "gat", "gats":
			rexp, rkeys, rerr := parseGat(refArgs)
			gexp, gkeys, gerr := parseGatB(gotArgs)
			if (rerr == nil) != (gerr == nil) {
				t.Fatalf("gat verdict: ref %v, byte %v, from %q", rerr, gerr, line)
			}
			if rerr == nil {
				if rexp != gexp || len(rkeys) != len(gkeys) {
					t.Fatalf("gat diverges from %q", line)
				}
				for i := range rkeys {
					if rkeys[i] != string(gkeys[i]) {
						t.Fatalf("gat key %d diverges from %q", i, line)
					}
				}
			}
		case "flush_all":
			rdelay, rnr, rerr := parseFlushAll(refArgs)
			gdelay, gnr, gerr := parseFlushAllB(gotArgs)
			if (rerr == nil) != (gerr == nil) || (rerr == nil && (rdelay != gdelay || rnr != gnr)) {
				t.Fatalf("flush_all diverges from %q", line)
			}
		case "verbosity":
			rlvl, rnr, rerr := parseVerbosity(refArgs)
			glvl, gnr, gerr := parseVerbosityB(gotArgs)
			if (rerr == nil) != (gerr == nil) || (rerr == nil && (rlvl != glvl || rnr != gnr)) {
				t.Fatalf("verbosity diverges from %q", line)
			}
		}
		// Key validity must agree field-by-field regardless of command.
		for i := range refArgs {
			if validKey(refArgs[i]) != validKeyB(gotArgs[i]) {
				t.Fatalf("validKey diverges on %q from %q", refArgs[i], line)
			}
		}
		// The numeric-value parsers agree on space-free input (the byte
		// variant additionally strips compat-mode trailing padding).
		if !strings.HasSuffix(line, " ") {
			rv, rok := parseNumericValue([]byte(line))
			gv, gok := parseNumericValueB([]byte(line))
			if rok != gok || (rok && rv != gv) {
				t.Fatalf("numeric parse diverges on %q: ref (%d,%v) byte (%d,%v)", line, rv, rok, gv, gok)
			}
		}
	})
}
