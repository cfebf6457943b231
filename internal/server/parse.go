package server

// Zero-allocation command parsing: the request path tokenizes each
// command line in place — fields are []byte slices into the connection's
// read buffer — and parses numbers with inline decimal loops, so parsing
// a command performs no heap allocation at all. The string-based parsers
// it replaced live on in protocol_ref_test.go as the reference the
// differential fuzzer (FuzzTokenizeDifferential) holds this file to.

// isASCIISpace mirrors strings.Fields' notion of a separator for ASCII
// input (space, tab, and the ASCII control whitespace). Bytes >= 0x80
// are never separators here: the byte tokenizer deliberately does not
// decode UTF-8 — memcached splits command lines on ASCII whitespace
// only, so a key containing multi-byte sequences passes through intact.
func isASCIISpace(c byte) bool {
	switch c {
	case ' ', '\t', '\n', '\v', '\f', '\r':
		return true
	}
	return false
}

// tokenize splits line into whitespace-separated fields, appending the
// sub-slices to fields (pass fields[:0] to reuse the backing array). The
// returned slices alias line and are valid only as long as line is.
func tokenize(line []byte, fields [][]byte) [][]byte {
	i := 0
	for i < len(line) {
		for i < len(line) && isASCIISpace(line[i]) {
			i++
		}
		if i == len(line) {
			break
		}
		start := i
		for i < len(line) && !isASCIISpace(line[i]) {
			i++
		}
		fields = append(fields, line[start:i])
	}
	return fields
}

// validKeyB reports whether key is a legal memcached key: 1..250 bytes,
// no whitespace or control characters.
func validKeyB(key []byte) bool {
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

// parseUintB parses a base-10 unsigned integer of at most bits bits,
// with strconv.ParseUint's verdicts (no signs, digits only, overflow is
// an error) and no allocation.
func parseUintB(b []byte, bits uint) (uint64, error) {
	if len(b) == 0 {
		return 0, errBadLine
	}
	max := uint64(1)<<bits - 1
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, errBadLine
		}
		d := uint64(c - '0')
		if n > (max-d)/10 {
			return 0, errBadLine
		}
		n = n*10 + d
	}
	return n, nil
}

// parseIntB parses a base-10 signed integer of at most bits bits, with
// strconv.ParseInt's verdicts (optional leading + or -) and no
// allocation.
func parseIntB(b []byte, bits uint) (int64, error) {
	neg := false
	if len(b) > 0 && (b[0] == '+' || b[0] == '-') {
		neg = b[0] == '-'
		b = b[1:]
	}
	if len(b) == 0 {
		return 0, errBadLine
	}
	max := uint64(1) << (bits - 1) // |min| when negative
	if !neg {
		max--
	}
	var n uint64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, errBadLine
		}
		d := uint64(c - '0')
		if n > (max-d)/10 {
			return 0, errBadLine
		}
		n = n*10 + d
	}
	if neg {
		return -int64(n), nil
	}
	return int64(n), nil
}

// isNoreply matches the trailing noreply token without conversion.
func isNoreply(b []byte) bool { return string(b) == "noreply" }

// storageArgsB are the parsed arguments of set/add/replace/cas and
// append/prepend. key aliases the tokenized line; callers that go on to
// read the data block must copy it first (the body read may slide the
// read buffer under it).
type storageArgsB struct {
	key       []byte
	flags     uint32
	exptime   int64
	nbytes    int
	casUnique uint64 // cas only
	noreply   bool
}

// parseStorageB parses the arguments of a storage command; withCAS adds
// the trailing <cas unique> of `cas`.
func parseStorageB(args [][]byte, withCAS bool) (storageArgsB, error) {
	var sa storageArgsB
	want := 4
	if withCAS {
		want = 5
	}
	if len(args) == want+1 && isNoreply(args[want]) {
		sa.noreply = true
		args = args[:want]
	}
	if len(args) != want {
		return sa, errBadLine
	}
	sa.key = args[0]
	if !validKeyB(sa.key) {
		return sa, errBadLine
	}
	flags, err := parseUintB(args[1], 32)
	if err != nil {
		return sa, errBadLine
	}
	sa.flags = uint32(flags)
	sa.exptime, err = parseIntB(args[2], 64)
	if err != nil {
		return sa, errBadLine
	}
	n, err := parseUintB(args[3], 31)
	if err != nil {
		return sa, errBadLine
	}
	sa.nbytes = int(n)
	if withCAS {
		sa.casUnique, err = parseUintB(args[4], 64)
		if err != nil {
			return sa, errBadLine
		}
	}
	return sa, nil
}

// parseDeleteB parses `delete <key> [noreply]`.
func parseDeleteB(args [][]byte) (key []byte, noreply bool, err error) {
	if len(args) == 2 && isNoreply(args[1]) {
		noreply = true
		args = args[:1]
	}
	if len(args) != 1 || !validKeyB(args[0]) {
		return nil, false, errBadLine
	}
	return args[0], noreply, nil
}

// parseIncrDecrB parses `incr|decr <key> <delta> [noreply]`. A
// structurally sound line whose delta is not a uint64 decimal yields
// errBadDelta — a different CLIENT_ERROR than a malformed line.
func parseIncrDecrB(args [][]byte) (key []byte, delta uint64, noreply bool, err error) {
	if len(args) == 3 && isNoreply(args[2]) {
		noreply = true
		args = args[:2]
	}
	if len(args) != 2 || !validKeyB(args[0]) {
		return nil, 0, false, errBadLine
	}
	delta, derr := parseUintB(args[1], 64)
	if derr != nil {
		return args[0], 0, noreply, errBadDelta
	}
	return args[0], delta, noreply, nil
}

// parseTouchB parses `touch <key> <exptime> [noreply]`.
func parseTouchB(args [][]byte) (key []byte, exptime int64, noreply bool, err error) {
	if len(args) == 3 && isNoreply(args[2]) {
		noreply = true
		args = args[:2]
	}
	if len(args) != 2 || !validKeyB(args[0]) {
		return nil, 0, false, errBadLine
	}
	exptime, err = parseIntB(args[1], 64)
	if err != nil {
		return nil, 0, false, errBadLine
	}
	return args[0], exptime, noreply, nil
}

// parseGatB parses `gat|gats <exptime> <key>+`.
func parseGatB(args [][]byte) (exptime int64, keys [][]byte, err error) {
	if len(args) < 2 {
		return 0, nil, errBadLine
	}
	exptime, err = parseIntB(args[0], 64)
	if err != nil {
		return 0, nil, errBadLine
	}
	keys = args[1:]
	for _, k := range keys {
		if !validKeyB(k) {
			return 0, nil, errBadLine
		}
	}
	return exptime, keys, nil
}

// parseFlushAllB parses `flush_all [delay] [noreply]`.
func parseFlushAllB(args [][]byte) (delay int64, noreply bool, err error) {
	if n := len(args); n > 0 && isNoreply(args[n-1]) {
		noreply = true
		args = args[:n-1]
	}
	switch len(args) {
	case 0:
		return 0, noreply, nil
	case 1:
		delay, err = parseIntB(args[0], 64)
		if err != nil || delay < 0 {
			return 0, noreply, errBadLine
		}
		return delay, noreply, nil
	default:
		return 0, noreply, errBadLine
	}
}

// parseVerbosityB parses `verbosity <level> [noreply]`.
func parseVerbosityB(args [][]byte) (level uint64, noreply bool, err error) {
	if len(args) == 2 && isNoreply(args[1]) {
		noreply = true
		args = args[:1]
	}
	if len(args) != 1 {
		return 0, noreply, errBadLine
	}
	level, err = parseUintB(args[0], 64)
	if err != nil {
		return 0, noreply, errBadLine
	}
	return level, noreply, nil
}

// parseNumericValueB parses a stored value as the 64-bit unsigned
// decimal incr/decr operate on: ASCII digits optionally followed by
// trailing spaces (the space-padded decr compatibility mode stores
// those, and memcached's strtoull ignores them). Leading zeros are
// accepted; a digit string that overflows a uint64 after zero-stripping
// is non-numeric.
func parseNumericValueB(data []byte) (uint64, bool) {
	// Strip the trailing space padding a compat-mode decr may have left.
	for len(data) > 0 && data[len(data)-1] == ' ' {
		data = data[:len(data)-1]
	}
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
	v, err := parseUintB(trimmed, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// appendValue packs flags+cas+data onto buf in the stored
// representation: a 12-byte header (decodeValue splits it back off).
func appendValue(buf []byte, flags uint32, cas uint64, data []byte) []byte {
	buf = append(buf,
		byte(flags>>24), byte(flags>>16), byte(flags>>8), byte(flags),
		byte(cas>>56), byte(cas>>48), byte(cas>>40), byte(cas>>32),
		byte(cas>>24), byte(cas>>16), byte(cas>>8), byte(cas))
	return append(buf, data...)
}
