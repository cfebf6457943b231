package server

// The string-based command parsers alaskad ran before parse.go's
// zero-allocation tokenizer and byte parsers replaced them. They are
// kept here, unchanged, as the deliberately naive reference the
// differential fuzzer (FuzzTokenizeDifferential, fuzz_test.go) holds the
// byte path to: same fields, same verdicts, same CLIENT_ERROR
// classification.

import (
	"strconv"
	"strings"
)

// storageArgs are the parsed arguments of set/add/replace/cas and
// append/prepend: <key> <flags> <exptime> <bytes> [<cas unique>] [noreply].
type storageArgs struct {
	key       string
	flags     uint32
	exptime   int64
	nbytes    int
	casUnique uint64 // cas only
	noreply   bool
}

// validKey reports whether key is a legal memcached key: 1..250 bytes,
// no whitespace or control characters.
func validKey(key string) bool {
	if len(key) == 0 || len(key) > maxKeyLen {
		return false
	}
	for i := 0; i < len(key); i++ {
		if key[i] <= ' ' || key[i] == 0x7f {
			return false
		}
	}
	return true
}

// parseStorage parses the arguments of a storage command; withCAS adds
// the trailing <cas unique> of `cas`.
func parseStorage(args []string, withCAS bool) (storageArgs, error) {
	var sa storageArgs
	want := 4
	if withCAS {
		want = 5
	}
	if len(args) == want+1 && args[want] == "noreply" {
		sa.noreply = true
		args = args[:want]
	}
	if len(args) != want {
		return sa, errBadLine
	}
	sa.key = args[0]
	if !validKey(sa.key) {
		return sa, errBadLine
	}
	flags, err := strconv.ParseUint(args[1], 10, 32)
	if err != nil {
		return sa, errBadLine
	}
	sa.flags = uint32(flags)
	sa.exptime, err = strconv.ParseInt(args[2], 10, 64)
	if err != nil {
		return sa, errBadLine
	}
	n, err := strconv.ParseUint(args[3], 10, 31)
	if err != nil {
		return sa, errBadLine
	}
	sa.nbytes = int(n)
	if withCAS {
		sa.casUnique, err = strconv.ParseUint(args[4], 10, 64)
		if err != nil {
			return sa, errBadLine
		}
	}
	return sa, nil
}

// parseDelete parses `delete <key> [noreply]`.
func parseDelete(args []string) (key string, noreply bool, err error) {
	if len(args) == 2 && args[1] == "noreply" {
		noreply = true
		args = args[:1]
	}
	if len(args) != 1 || !validKey(args[0]) {
		return "", false, errBadLine
	}
	return args[0], noreply, nil
}

// parseIncrDecr parses `incr|decr <key> <delta> [noreply]`. A structurally
// sound line whose delta is not a uint64 decimal yields errBadDelta — a
// different CLIENT_ERROR than a malformed line, matching memcached.
func parseIncrDecr(args []string) (key string, delta uint64, noreply bool, err error) {
	if len(args) == 3 && args[2] == "noreply" {
		noreply = true
		args = args[:2]
	}
	if len(args) != 2 || !validKey(args[0]) {
		return "", 0, false, errBadLine
	}
	delta, derr := strconv.ParseUint(args[1], 10, 64)
	if derr != nil {
		return args[0], 0, noreply, errBadDelta
	}
	return args[0], delta, noreply, nil
}

// parseTouch parses `touch <key> <exptime> [noreply]`.
func parseTouch(args []string) (key string, exptime int64, noreply bool, err error) {
	if len(args) == 3 && args[2] == "noreply" {
		noreply = true
		args = args[:2]
	}
	if len(args) != 2 || !validKey(args[0]) {
		return "", 0, false, errBadLine
	}
	exptime, err = strconv.ParseInt(args[1], 10, 64)
	if err != nil {
		return "", 0, false, errBadLine
	}
	return args[0], exptime, noreply, nil
}

// parseFlushAll parses `flush_all [delay] [noreply]`. The delay must be
// a non-negative int64 (memcached's unsigned rexpirtime); omitting it
// means flush immediately.
func parseFlushAll(args []string) (delay int64, noreply bool, err error) {
	if n := len(args); n > 0 && args[n-1] == "noreply" {
		noreply = true
		args = args[:n-1]
	}
	switch len(args) {
	case 0:
		return 0, noreply, nil
	case 1:
		delay, err = strconv.ParseInt(args[0], 10, 64)
		if err != nil || delay < 0 {
			return 0, noreply, errBadLine
		}
		return delay, noreply, nil
	default:
		return 0, noreply, errBadLine
	}
}

// parseVerbosity parses `verbosity <level> [noreply]`.
func parseVerbosity(args []string) (level uint64, noreply bool, err error) {
	if len(args) == 2 && args[1] == "noreply" {
		noreply = true
		args = args[:1]
	}
	if len(args) != 1 {
		return 0, noreply, errBadLine
	}
	level, err = strconv.ParseUint(args[0], 10, 64)
	if err != nil {
		return 0, noreply, errBadLine
	}
	return level, noreply, nil
}

// parseGat parses `gat|gats <exptime> <key>+`.
func parseGat(args []string) (exptime int64, keys []string, err error) {
	if len(args) < 2 {
		return 0, nil, errBadLine
	}
	exptime, err = strconv.ParseInt(args[0], 10, 64)
	if err != nil {
		return 0, nil, errBadLine
	}
	keys = args[1:]
	for _, k := range keys {
		if !validKey(k) {
			return 0, nil, errBadLine
		}
	}
	return exptime, keys, nil
}

// parseNumericValue parses a stored value as the 64-bit unsigned decimal
// incr/decr operate on: plain ASCII digits, no sign, no space padding
// (we never space-pad, unlike some memcached versions). Leading zeros
// are accepted, like memcached's strtoull; a value that overflows a
// uint64 after zero-stripping is non-numeric.
func parseNumericValue(data []byte) (uint64, bool) {
	if len(data) == 0 {
		return 0, false
	}
	for _, c := range data {
		if c < '0' || c > '9' {
			return 0, false
		}
	}
	trimmed := data
	for len(trimmed) > 1 && trimmed[0] == '0' {
		trimmed = trimmed[1:]
	}
	if len(trimmed) > maxNumericLen {
		return 0, false
	}
	v, err := strconv.ParseUint(string(trimmed), 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// splitCommand tokenizes a command line on single spaces, memcached
// style. An empty line yields no fields.
func splitCommand(line string) []string {
	return strings.Fields(line)
}
