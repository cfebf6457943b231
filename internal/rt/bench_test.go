package rt_test

// The allocation half of the handle tax: what one hfree + halloc of a
// 512 B object costs against a populated heap, on the Anchorage service
// (built as server.Boot builds it, CountedPins) and on the non-moving
// baseline, serially and with every P churning at once.
//
//	go test -run xxx -bench HallocHfree -benchtime 2s -cpu 1,2 ./internal/rt

import (
	"sync/atomic"
	"testing"

	"alaska/internal/anchorage"
	"alaska/internal/handle"
	"alaska/internal/mallocsim"
	"alaska/internal/mem"
	"alaska/internal/rt"
)

func BenchmarkHallocHfree(b *testing.B) {
	const (
		live = 20000
		size = 512
	)
	services := []struct {
		name string
		make func(*mem.Space) rt.Service
	}{
		{"anchorage", func(s *mem.Space) rt.Service { return anchorage.NewService(s, anchorage.DefaultConfig()) }},
		{"malloc", func(s *mem.Space) rt.Service { return mallocsim.NewService(s) }},
	}
	for _, svc := range services {
		populate := func(b *testing.B) (*rt.Runtime, []handle.Handle) {
			space := mem.NewSpace()
			r, err := rt.New(space, svc.make(space), rt.WithPinMode(rt.CountedPins))
			if err != nil {
				b.Fatal(err)
			}
			hs := make([]handle.Handle, live)
			for i := range hs {
				if hs[i], err = r.Halloc(size); err != nil {
					b.Fatal(err)
				}
			}
			return r, hs
		}
		// churn frees hs[k] and allocates its replacement, k walking the
		// caller's own stripe of the live set.
		churn := func(r *rt.Runtime, hs []handle.Handle, k int) (err error) {
			if err = r.Hfree(hs[k]); err == nil {
				hs[k], err = r.Halloc(size)
			}
			return err
		}
		b.Run(svc.name+"/serial", func(b *testing.B) {
			r, hs := populate(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := churn(r, hs, i%live); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(svc.name+"/parallel", func(b *testing.B) {
			r, hs := populate(b)
			var stripes atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				// Each goroutine owns every 64th handle from its own start,
				// so no two touch the same slot of hs.
				const stride = 64
				k := int(stripes.Add(1)-1) % stride
				for pb.Next() {
					if err := churn(r, hs, k); err != nil {
						b.Error(err)
						return
					}
					if k += stride; k >= live {
						k %= stride
					}
				}
			})
		})
	}
}
