// Command alaska-loadgen drives an alaskad server (or any memcached-
// ASCII-protocol server) with YCSB mixes, a read-modify-write/TTL mix or
// a cache-fill churn (internal/loadgen, one flag per Config field), prints
// throughput, latency and the server's stats, and exits 1 if an op failed.
//
//	alaska-loadgen -addr localhost:11211 -workload ycsb-a -connections 8 -duration 10s
//	alaska-loadgen -workload rmw -ttl 1 -connections 4 -duration 5s
//	alaska-loadgen -rate 20000 -warmup 2s -latency-csv lat.csv -duration 30s
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"time"

	"alaska/internal/loadgen"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("alaska-loadgen: ")
	var c loadgen.Config
	flag.StringVar(&c.Addr, "addr", "localhost:11211", "server address")
	flag.StringVar(&c.Workload, "workload", "ycsb-a", "mix: "+loadgen.Workloads())
	flag.Int64Var(&c.TTL, "ttl", 0, "exptime (seconds) attached to every stored value; 0 = no expiry")
	flag.IntVar(&c.Connections, "connections", 8, "concurrent client connections")
	flag.IntVar(&c.Records, "records", 10000, "preloaded record count")
	flag.IntVar(&c.ValueSize, "value-size", 512, "value payload bytes")
	flag.Float64Var(&c.ValueJitter, "value-jitter", 0, "randomize update sizes down to (1-jitter)*value-size; nonzero churns the heap into fragmentation")
	flag.DurationVar(&c.Duration, "duration", 5*time.Second, "measured run length")
	flag.DurationVar(&c.Warmup, "warmup", 0, "ramp-up excluded from the measured stats")
	flag.Float64Var(&c.Rate, "rate", 0, "open-loop target ops/s across all connections (latency measured from intended start); 0 = closed loop")
	flag.StringVar(&c.LatencyCSV, "latency-csv", "", "write a per-second latency-over-time CSV of the measured window to this file")
	flag.IntVar(&c.Hold, "hold", 0, "extra connections opened before the run and held idle (never sending a byte) — exercises -max-conns and -idle-timeout")
	flag.BoolVar(&c.NoLoad, "no-load", false, "skip the preload phase and run against whatever the server already holds — measures a warm server, e.g. right after a -persist restart")
	flag.DurationVar(&c.ClientTimeout, "client-timeout", 0, "per-op deadline on every worker connection, with reconnect-on-error: a worker that hits a transport fault counts the error and keeps driving instead of dying; 0 = off (first error kills the worker)")
	flag.Int64Var(&c.Seed, "seed", 42, "base RNG seed")
	flag.Parse()

	rep, err := loadgen.Run(context.Background(), c)
	if err != nil {
		log.Fatal(err)
	}
	rep.Print(os.Stdout)
	if rep.Errors > 0 {
		os.Exit(1)
	}
}
