package ycsb

import (
	"testing"
	"time"

	"alaska/internal/anchorage"
	"alaska/internal/kv"
)

func TestRunnerLoadAndRunBaseline(t *testing.T) {
	store := kv.NewShardedStore(kv.NewMallocBackend(), 1, 0)
	gen, err := NewGenerator(WorkloadA, 500, 128, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(store, gen, 10*time.Microsecond)
	if err := r.Load(); err != nil {
		t.Fatal(err)
	}
	if store.Len() != 500 {
		t.Fatalf("loaded %d records", store.Len())
	}
	if err := r.Run(5000); err != nil {
		t.Fatal(err)
	}
	if r.ReadLat.Count() == 0 || r.UpdateLat.Count() == 0 {
		t.Error("no latencies recorded")
	}
	// Workload A is 50/50.
	ratio := float64(r.ReadLat.Count()) / float64(r.ReadLat.Count()+r.UpdateLat.Count())
	if ratio < 0.45 || ratio > 0.55 {
		t.Errorf("read ratio %.2f, want ~0.5", ratio)
	}
	if r.Now() == 0 {
		t.Error("simulated clock did not advance")
	}
}

// §5.5's latency comparison: Anchorage costs some latency vs the
// baseline (the paper measures +13% reads / +17% updates on Workload F).
func TestRunnerAnchorageLatencyOverheadBounded(t *testing.T) {
	run := func(b kv.Backend) (readMean, updMean float64) {
		store := kv.NewShardedStore(b, 1, 256<<10) // small maxmemory to force churn
		gen, err := NewGenerator(WorkloadF, 400, 256, 2)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner(store, gen, 10*time.Microsecond)
		if err := r.Load(); err != nil {
			t.Fatal(err)
		}
		if err := r.Run(20000); err != nil {
			t.Fatal(err)
		}
		return r.ReadLat.Mean(), r.UpdateLat.Mean()
	}
	baseR, baseU := run(kv.NewMallocBackend())
	anch, err := kv.NewAnchorageBackend(anchorage.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	anchR, anchU := run(anch)
	// Anchorage may pause requests, but average latency must stay within
	// a small multiple of baseline (the paper: +13%/+17%; we allow 2x for
	// the simulated pause attribution).
	if anchR > baseR*2 {
		t.Errorf("anchorage read latency %.1fus vs baseline %.1fus — pauses out of control", anchR, baseR)
	}
	if anchU > baseU*2 {
		t.Errorf("anchorage update latency %.1fus vs baseline %.1fus", anchU, baseU)
	}
}

func TestRunnerRMWCountsAsUpdate(t *testing.T) {
	store := kv.NewShardedStore(kv.NewMallocBackend(), 1, 0)
	gen, err := NewGenerator(WorkloadF, 100, 64, 3)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(store, gen, time.Microsecond)
	if err := r.Load(); err != nil {
		t.Fatal(err)
	}
	if err := r.Run(2000); err != nil {
		t.Fatal(err)
	}
	if r.UpdateLat.Count() == 0 {
		t.Error("workload F produced no RMW latencies")
	}
	// RMWs cost two service times: their mean must exceed reads'.
	if r.UpdateLat.Mean() <= r.ReadLat.Mean() {
		t.Errorf("RMW mean %.2f <= read mean %.2f", r.UpdateLat.Mean(), r.ReadLat.Mean())
	}
}
