// Command alaska-bench is the repository's benchmark: it boots alaskad in
// process, drives it over loopback beside a null server, checks every reply
// and prints the metrics BENCHMARK.json declares. See README.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

func main() {
	name := flag.String("workload", "", "workload to run")
	seed := flag.Uint64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", runSeconds, "seconds to measure for")
	trace := flag.Int("trace", 0, "0: the end-to-end metrics; 1: the ledger, the per-layer rows and a trace file")
	flag.Parse()
	wl, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "usage: alaska-bench --workload <w> --seed <n> --seconds <s> --trace <0|1>; workloads:\n")
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", w.name, w.why)
		}
		os.Exit(2)
	}
	// SIGINT and SIGTERM cancel the context; the epoch in flight tears its
	// servers down the normal way and no result is printed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	cfg := config{wl: wl, seed: *seed, seconds: *seconds, trace: *trace != 0,
		outDir: filepath.Join("bench", "out"), ledger: fullLedger}
	if err := benchmark(ctx, cfg, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}
