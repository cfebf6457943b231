package main

import (
	"flag"
	"io"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"alaska/internal/server"
)

func TestParseBytes(t *testing.T) {
	for _, c := range []struct {
		in   string
		want uint64
		ok   bool
	}{
		{"0", 0, true},
		{"1048576", 1 << 20, true},
		{"256KiB", 256 << 10, true},
		{"1MiB", 1 << 20, true},
		{"2GiB", 2 << 30, true},
		{" 64 MiB\t", 64 << 20, true},
		{"17179869183GiB", math.MaxUint64 - (1<<30 - 1), true}, // the most GiB that fit
		{"17179869184GiB", 0, false},                           // 2^64: used to wrap to 0, "unlimited"
		{"17179869185GiB", 0, false},                           // used to wrap to 1 GiB
		{"18446744073709551616", 0, false},
		{"", 0, false},
		{"MiB", 0, false},
		{"-1", 0, false},
		{"1.5MiB", 0, false},
		{"1TiB", 0, false},
	} {
		got, err := parseBytes(c.in)
		if (err == nil) != c.ok || got != c.want {
			t.Errorf("parseBytes(%q) = %d, %v; want %d (ok %v)", c.in, got, err, c.want, c.ok)
		}
	}
}

// TestByteFlagsFitTheirFields: -max-value-size and -max-reply-backlog feed
// int fields, so a count past math.MaxInt is an error, not a wrapped one.
func TestByteFlagsFitTheirFields(t *testing.T) {
	for _, in := range []string{strconv.FormatUint(math.MaxInt+1, 10), "8589934592GiB", strconv.FormatUint(math.MaxUint64, 10)} {
		fs := flag.NewFlagSet("alaskad", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		if c, _, _, _ := parseFlags(fs, []string{"-max-value-size", in}); c.MaxValueSize != server.Defaults().MaxValueSize {
			t.Errorf("-max-value-size %s parsed to %d, want it rejected", in, c.MaxValueSize)
		}
	}
}

// TestFlagDefaultsAreBootDefaults: alaskad with no flags boots exactly
// server.Defaults(). Mutation: give any flag a default literal of its own
// (-shards 16, say) instead of the field's value, and this fails.
func TestFlagDefaultsAreBootDefaults(t *testing.T) {
	if got, _, _, _ := parseFlags(flag.NewFlagSet("alaskad", flag.ContinueOnError), nil); !reflect.DeepEqual(got, server.Defaults()) {
		t.Fatalf("no flags = %+v\nwant server.Defaults() = %+v", got, server.Defaults())
	}
}

// TestBootRejects: every configuration alaskad refuses comes back from
// server.Boot as an error carrying the text alaskad prints for it.
func TestBootRejects(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-shards", "0"}, "-shards must be >= 1"},
		{[]string{"-max-memory", "1KiB"}, "-max-memory (1024) must be at least -max-value-size (1048576): a cache that cannot hold its largest value rejects every store of that size"},
		{[]string{"-backend", "jemalloc"}, `unknown -backend "jemalloc" (want malloc|mesh|anchorage)`},
	} {
		t.Run(strings.Join(c.args, " "), func(t *testing.T) {
			bc, _, _, _ := parseFlags(flag.NewFlagSet("alaskad", flag.ContinueOnError), append(c.args, "-addr", "127.0.0.1:0"))
			bc.PackLog = nil // no -persist
			srv, _, err := server.Boot(bc)
			if err == nil {
				_ = srv.Shutdown(time.Second)
			}
			if err == nil || err.Error() != c.want {
				t.Fatalf("Boot = %v, want %q", err, c.want)
			}
		})
	}
}
