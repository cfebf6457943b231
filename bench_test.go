// Package repro's root benchmark harness: one testing.B benchmark per
// table/figure of the paper's evaluation (run with `go test -bench=. .`),
// plus microbenchmarks for the design choices DESIGN.md calls out
// (stack pin sets vs. atomic pin counts, translation cost, barrier cost,
// handle-fault swap-in).
//
// Figure-level benchmarks run a scaled version of the full experiment per
// iteration and attach the paper-relevant quantity as a custom metric
// (geomean overhead, RSS saving, latency), so `go test -bench` output
// regenerates the evaluation's headline numbers.
package repro

import (
	"fmt"
	"testing"
	"time"

	"alaska/internal/anchorage"
	"alaska/internal/figures"
	"alaska/internal/handle"
	"alaska/internal/locality"
	"alaska/internal/mem"
	"alaska/internal/mesh"
	"alaska/internal/rt"
	"alaska/internal/swap"
	"alaska/internal/vm"
	"alaska/internal/workloads"
	"alaska/pkg/alaska"
)

// BenchmarkFigure7 regenerates the overhead study: all 49 benchmark
// models under baseline and Alaska. Metrics: geomean overhead (%), and
// the geomean excluding the strict-aliasing violators.
func BenchmarkFigure7(b *testing.B) {
	var gm, gmX float64
	for i := 0; i < b.N; i++ {
		res, err := figures.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		gm = figures.Geomean(res, false)
		gmX = figures.Geomean(res, true)
	}
	b.ReportMetric(gm*100, "geomean-overhead-%")
	b.ReportMetric(gmX*100, "geomean-excl-sa-%")
}

// BenchmarkFigure7PerSuite runs each suite separately so per-suite costs
// are visible.
func BenchmarkFigure7PerSuite(b *testing.B) {
	for _, suite := range []string{workloads.SuiteEmbench, workloads.SuiteGAP, workloads.SuiteNAS, workloads.SuiteSPEC} {
		suite := suite
		b.Run(suite, func(b *testing.B) {
			var over float64
			for i := 0; i < b.N; i++ {
				var xs []float64
				res, err := figures.Figure7()
				if err != nil {
					b.Fatal(err)
				}
				for _, r := range res {
					if r.Suite == suite {
						xs = append(xs, r.Overhead)
					}
				}
				var sum float64
				for _, x := range xs {
					sum += x
				}
				over = sum / float64(len(xs))
			}
			b.ReportMetric(over*100, "mean-overhead-%")
		})
	}
}

// BenchmarkFigure8 regenerates the ablation study. Metrics: mean overhead
// under each configuration.
func BenchmarkFigure8(b *testing.B) {
	var full, noTrack, noHoist float64
	for i := 0; i < b.N; i++ {
		res, err := figures.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		full, noTrack, noHoist = 0, 0, 0
		for _, r := range res {
			full += r.Alaska
			noTrack += r.NoTracking
			noHoist += r.NoHoisting
		}
		n := float64(len(res))
		full, noTrack, noHoist = full/n, noTrack/n, noHoist/n
	}
	b.ReportMetric(full*100, "alaska-%")
	b.ReportMetric(noTrack*100, "notracking-%")
	b.ReportMetric(noHoist*100, "nohoisting-%")
}

// BenchmarkCodeSize regenerates the Q2 executable-growth numbers.
func BenchmarkCodeSize(b *testing.B) {
	var gm float64
	for i := 0; i < b.N; i++ {
		_, g, err := figures.CodeSize()
		if err != nil {
			b.Fatal(err)
		}
		gm = g
	}
	b.ReportMetric(gm*100, "code-growth-%")
}

// BenchmarkFigure9 regenerates the Redis defragmentation experiment at
// 1/16 scale. Metric: Anchorage's RSS saving vs the baseline (the paper's
// "40% in Redis" headline, Figure 1).
func BenchmarkFigure9(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		res, err := figures.Figure9(figures.DefaultDefragConfig(0.0625))
		if err != nil {
			b.Fatal(err)
		}
		saving = 1 - float64(res["anchorage"].FinalRSS)/float64(res["baseline"].FinalRSS)
	}
	b.ReportMetric(saving*100, "rss-saving-%")
}

// BenchmarkFigure10 regenerates a reduced control-parameter sweep.
// Metric: envelope spread at mid-run (how much the parameters matter).
func BenchmarkFigure10(b *testing.B) {
	var spread float64
	for i := 0; i < b.N; i++ {
		points, err := figures.Figure10(figures.DefaultDefragConfig(0.0625),
			[]float64{1.15, 2.0}, []float64{0.02, 0.2}, []float64{0.05, 0.5})
		if err != nil {
			b.Fatal(err)
		}
		lo, hi := figures.Envelope(points)
		mid := lo.Points[len(lo.Points)/2].T
		spread = (hi.At(mid) - lo.At(mid)) / hi.At(mid)
	}
	b.ReportMetric(spread*100, "envelope-spread-%")
}

// BenchmarkFigure11 regenerates the large-workload experiment at reduced
// scale. Metric: Anchorage's saving vs baseline at the larger scale.
func BenchmarkFigure11(b *testing.B) {
	var saving float64
	for i := 0; i < b.N; i++ {
		res, err := figures.Figure11(0.125)
		if err != nil {
			b.Fatal(err)
		}
		saving = 1 - float64(res["anchorage"].FinalRSS)/float64(res["baseline"].FinalRSS)
	}
	b.ReportMetric(saving*100, "rss-saving-%")
}

// BenchmarkFigure12 regenerates one memcached cell (4 threads, 50 ms
// pauses) against its baseline. Metrics: average latencies in ns.
func BenchmarkFigure12(b *testing.B) {
	var alaskaAvg, baseAvg time.Duration
	for i := 0; i < b.N; i++ {
		cfg := figures.DefaultMemcachedConfig(4, 50*time.Millisecond)
		cfg.Duration = 200 * time.Millisecond
		r, err := figures.RunMemcached(true, cfg)
		if err != nil {
			b.Fatal(err)
		}
		base, err := figures.RunMemcached(false, figures.DefaultMemcachedConfig(4, 0))
		if err != nil {
			b.Fatal(err)
		}
		alaskaAvg, baseAvg = r.AvgLatency, base.AvgLatency
	}
	b.ReportMetric(float64(alaskaAvg.Nanoseconds()), "alaska-avg-ns")
	b.ReportMetric(float64(baseAvg.Nanoseconds()), "baseline-avg-ns")
}

// ---------------------------------------------------------------------------
// Design-choice ablations.

// BenchmarkTranslation measures the raw handle-table translation path
// (Figure 5's six instructions, in simulation).
func BenchmarkTranslation(b *testing.B) {
	tb := handle.NewTable()
	id, err := tb.Alloc(0x10000, 4096)
	if err != nil {
		b.Fatal(err)
	}
	h := handle.Make(id, 128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tb.Translate(h); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTranslateParallel measures handle→address translation across
// cores on the sharded table's lock-free atomic-load path. Run with
// -cpu=1,2,4,8; the paper's overhead argument needs translation to stay
// near-free under parallelism. (The comparison against the seed's
// single-RWMutex table is the handle.translate_par_ns ledger row's
// history, not a second table kept alive for it.)
func BenchmarkTranslateParallel(b *testing.B) {
	tb := handle.NewTable()
	const n = 1024
	hs := make([]handle.Handle, n)
	for i := range hs {
		id, err := tb.Alloc(mem.Addr(0x10000+uint64(i)*4096), 4096)
		if err != nil {
			b.Fatal(err)
		}
		hs[i] = handle.Make(id, 128)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			// b.Fatal is off-limits on RunParallel workers
			// (FailNow must run on the benchmark goroutine).
			if _, err := tb.Translate(hs[i&(n-1)]); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkAllocFreeParallel measures parallel handle allocation and
// recycling. The sharded table spreads the free lists and bump pointers
// across shards keyed by the ID's low bits, so concurrent allocators
// mostly touch different locks.
func BenchmarkAllocFreeParallel(b *testing.B) {
	tb := handle.NewTable()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			id, err := tb.Alloc(0x10000, 64)
			if err != nil {
				b.Error(err)
				return
			}
			if err := tb.Free(id); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// BenchmarkPinTracking compares the paper's stack pin sets against the
// naïve atomic pin-count design under parallel load — the contention
// argument of §3.4.
func BenchmarkPinTracking(b *testing.B) {
	for _, mode := range []struct {
		name string
		m    rt.PinMode
	}{{"StackPins", rt.StackPins}, {"CountedPins", rt.CountedPins}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			space := mem.NewSpace()
			svc := anchorage.NewService(space, anchorage.DefaultConfig())
			r, err := rt.New(space, svc, rt.WithPinMode(mode.m))
			if err != nil {
				b.Fatal(err)
			}
			h, err := r.Halloc(64)
			if err != nil {
				b.Fatal(err)
			}
			b.RunParallel(func(pb *testing.PB) {
				th := r.NewThread()
				defer th.Destroy()
				th.PushFrame(1)
				defer th.PopFrame()
				for pb.Next() {
					if _, err := th.TranslateAndPin(h, 0); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkAllocators compares allocation fast paths: Anchorage's naïve
// bump+freelist vs the conventional size-class allocator, both through
// the full halloc path where applicable.
func BenchmarkAllocators(b *testing.B) {
	b.Run("anchorage-halloc", func(b *testing.B) {
		sys, err := alaska.NewSystem(alaska.WithAnchorage(anchorage.DefaultConfig()))
		if err != nil {
			b.Fatal(err)
		}
		defer sys.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h, err := sys.Halloc(64)
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.Hfree(h); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("malloc-service", func(b *testing.B) {
		sys, err := alaska.NewSystem()
		if err != nil {
			b.Fatal(err)
		}
		defer sys.Close()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h, err := sys.Halloc(64)
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.Hfree(h); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// checkerboard fragments a fresh heap for the two pass benchmarks: 16384
// objects of 512 bytes (8 MiB), three of every four freed again.
func checkerboard(b *testing.B, r *rt.Runtime) {
	var hs []handle.Handle
	for k := 0; k < 16384; k++ {
		h, err := r.Halloc(512)
		if err != nil {
			b.Fatal(err)
		}
		hs = append(hs, h)
	}
	for k, h := range hs {
		if k%4 != 0 {
			if err := r.Hfree(h); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkDefragPass measures a full-heap compaction pass over a
// fragmented 8 MiB heap.
func BenchmarkDefragPass(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		sys, err := alaska.NewSystem(alaska.WithAnchorage(anchorage.DefaultConfig()))
		if err != nil {
			b.Fatal(err)
		}
		checkerboard(b, sys.Runtime())
		b.StartTimer()
		if _, err := sys.Defrag(nil); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := sys.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkConcurrentDefragPass measures the same compaction of the same
// heap by the pause-free pass: one unbudgeted pass — coalesce, every move
// through the §7 speculative protocol, truncate — with no thread
// registered, so the blocks it vacates drain inside it.
func BenchmarkConcurrentDefragPass(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		space := mem.NewSpace()
		svc := anchorage.NewService(space, anchorage.DefaultConfig())
		r, err := rt.New(space, svc,
			rt.WithPinMode(rt.CountedPins),
			rt.WithFaultHandler(anchorage.RevalidateFaultHandler()))
		if err != nil {
			b.Fatal(err)
		}
		checkerboard(b, r)
		b.StartTimer()
		if moved := svc.ConcurrentDefragPass(1 << 40); moved == 0 {
			b.Fatal("pass moved nothing on a checkerboard heap")
		}
		b.StopTimer()
		if err := r.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// BenchmarkBarrier measures the stop-the-world rendezvous with idle
// (externally-blocked) threads — the fixed cost of every defrag pass.
func BenchmarkBarrier(b *testing.B) {
	sys, err := alaska.NewSystem(alaska.WithAnchorage(anchorage.DefaultConfig()))
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Barrier(nil, func(*alaska.BarrierScope) {})
	}
}

// BenchmarkSwapIn measures the handle-fault path: fault, decompress,
// reallocate, revalidate, retry (the §7 extension).
func BenchmarkSwapIn(b *testing.B) {
	sys, err := alaska.NewSystem(
		alaska.WithAnchorage(anchorage.DefaultConfig()),
		alaska.WithSwapping(swap.NewMemStore(true)),
	)
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close()
	th := sys.NewThread()
	defer th.Destroy()
	h, err := sys.Halloc(4096)
	if err != nil {
		b.Fatal(err)
	}
	a, _ := th.Translate(h)
	if err := sys.Space().Write(a, make([]byte, 4096)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Barrier(th, func(scope *alaska.BarrierScope) {
			if err := sys.Swapper().SwapOut(scope, h.ID()); err != nil {
				b.Fatal(err)
			}
		})
		if _, err := th.Translate(h); err != nil { // faults + swaps in
			b.Fatal(err)
		}
	}
}

// BenchmarkVMInterpreter measures raw interpreter throughput on a dense
// kernel, the substrate cost under every Figure 7 number.
func BenchmarkVMInterpreter(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m := vm.NewBaseline(workloads.BuildGrid(256, 10, 4), vm.DefaultCosts)
		if _, err := m.Run("main"); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(m.DynInstrs) // instructions per "byte" for ns/instr
	}
}

// BenchmarkWorkloadsCompile measures the compiler pipeline over every
// benchmark model (the paper's Q2 compile-time discussion).
func BenchmarkWorkloadsCompile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, wl := range workloads.All() {
			mod := wl.Build()
			if _, err := alaska.Compile(mod, alaska.DefaultCompileOptions); err != nil {
				b.Fatal(fmt.Errorf("%s: %w", wl.Name, err))
			}
		}
	}
}

// BenchmarkAnchorageAlpha ablates the aggression parameter: small α means
// many small pauses, large α fewer big ones. Metric: total pause time to
// fully compact a fragmented heap.
func BenchmarkAnchorageAlpha(b *testing.B) {
	for _, alpha := range []float64{0.05, 0.25, 1.0} {
		alpha := alpha
		b.Run(fmt.Sprintf("alpha=%.2f", alpha), func(b *testing.B) {
			var passes int64
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				cfg := anchorage.DefaultConfig()
				cfg.Alpha = alpha
				cfg.SubHeapSize = 256 * 1024
				sys, err := alaska.NewSystem(alaska.WithAnchorage(cfg))
				if err != nil {
					b.Fatal(err)
				}
				var hs []alaska.Handle
				for k := 0; k < 8192; k++ {
					h, err := sys.Halloc(512)
					if err != nil {
						b.Fatal(err)
					}
					hs = append(hs, h)
				}
				for k, h := range hs {
					if k%4 != 0 {
						if err := sys.Hfree(h); err != nil {
							b.Fatal(err)
						}
					}
				}
				svc := sys.Runtime().Service().(*anchorage.Service)
				budget := uint64(alpha * float64(svc.HeapExtent()))
				if budget == 0 {
					budget = 1
				}
				b.StartTimer()
				n := 0
				for ; n < 1000; n++ {
					var moved uint64
					sys.Barrier(nil, func(scope *alaska.BarrierScope) {
						moved = svc.DefragPass(scope, budget)
					})
					if moved == 0 {
						break
					}
				}
				b.StopTimer()
				passes = int64(n)
				if err := sys.Close(); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.ReportMetric(float64(passes), "passes-to-compact")
		})
	}
}

// BenchmarkMeshProbes ablates Mesh's randomized probe budget: more probes
// per round find more meshable pairs but cost more scan time. The sparse
// heap is built once; each iteration times one probing round (later
// rounds find progressively fewer pairs, as in a real Mesh deployment).
func BenchmarkMeshProbes(b *testing.B) {
	for _, probes := range []int{8, 64, 512} {
		probes := probes
		b.Run(fmt.Sprintf("probes=%d", probes), func(b *testing.B) {
			space := mem.NewSpace()
			a := mesh.New(space, 42)
			var ptrs []mem.Addr
			for k := 0; k < 2048; k++ {
				p, err := a.Alloc(512)
				if err != nil {
					b.Fatal(err)
				}
				ptrs = append(ptrs, p)
			}
			for k, p := range ptrs {
				if k%8 != 0 {
					if err := a.Free(p); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a.Mesh(probes)
			}
			b.ReportMetric(float64(a.MeshCount), "meshes-total")
		})
	}
}

// BenchmarkLocalityOptimize measures the clustering pass, ping-ponging
// objects between two arenas so every timed iteration does a full
// relocation round without per-iteration setup. Reports the locality
// improvement of the first round.
func BenchmarkLocalityOptimize(b *testing.B) {
	space := mem.NewSpace()
	r, err := rt.New(space, anchorage.NewService(space, anchorage.DefaultConfig()))
	if err != nil {
		b.Fatal(err)
	}
	th := r.NewThread()
	const n = 1024
	order := make([]uint32, n)
	hs := make([]handle.Handle, n)
	for k := range hs {
		h, err := r.Halloc(64)
		if err != nil {
			b.Fatal(err)
		}
		hs[k] = h
	}
	for k := range order {
		order[k] = hs[(k*677)%n].ID() // scattered order
	}
	tracker := locality.NewTracker(0)
	for _, id := range order {
		tracker.Touch(id)
	}
	before, err := locality.PageSwitches(r, order)
	if err != nil {
		b.Fatal(err)
	}
	var opts [2]*locality.Optimizer
	for k := range opts {
		o, err := locality.NewOptimizer(r, tracker, 1<<20)
		if err != nil {
			b.Fatal(err)
		}
		opts[k] = o
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o := opts[i%2]
		o.ResetArena()
		r.Barrier(th, func(scope *rt.BarrierScope) {
			o.Optimize(scope)
		})
	}
	b.StopTimer()
	after, err := locality.PageSwitches(r, order)
	if err != nil {
		b.Fatal(err)
	}
	if after > 0 {
		b.ReportMetric(float64(before)/float64(after), "locality-improvement-x")
	}
}
