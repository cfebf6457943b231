package figures

import (
	"testing"
	"time"

	"alaska/internal/stats"
	"alaska/internal/workloads"
)

func allForTest() []workloads.Benchmark { return workloads.All() }

func TestSavingMetric(t *testing.T) {
	r := DefragResult{PeakRSS: 100, FinalRSS: 60}
	if got := r.Saving(); got != 0.4 {
		t.Errorf("Saving = %v, want 0.4", got)
	}
	if got := (DefragResult{}).Saving(); got != 0 {
		t.Errorf("empty Saving = %v", got)
	}
}

func TestEnvelopeEmpty(t *testing.T) {
	lo, hi := Envelope(nil)
	if len(lo.Points) != 0 || len(hi.Points) != 0 {
		t.Error("empty sweep produced envelope points")
	}
}

func TestEnvelopeBounds(t *testing.T) {
	mk := func(vals ...float64) SweepPoint {
		s := &stats.Series{}
		for i, v := range vals {
			s.Add(time.Duration(i)*time.Second, v)
		}
		return SweepPoint{Result: DefragResult{Series: s}}
	}
	points := []SweepPoint{mk(10, 20, 30), mk(5, 25, 28), mk(8, 22, 35)}
	lo, hi := Envelope(points)
	// At t=1s: values 20, 25, 22 -> lo 20, hi 25.
	if got := lo.At(time.Second); got != 20 {
		t.Errorf("lo(1s) = %v", got)
	}
	if got := hi.At(time.Second); got != 25 {
		t.Errorf("hi(1s) = %v", got)
	}
	// Envelope ordering invariant everywhere.
	for _, p := range lo.Points {
		if hi.At(p.T) < p.V {
			t.Errorf("envelope inverted at %v", p.T)
		}
	}
}

// TestDefragFiguresRepeat runs a small Figure 9 twice and requires every
// backend's RSS curve to come out the same, point for point: a figure is a
// function of its seed. activedefrag is the one that needs care: the
// store hands it its entries to relocate in LRU order, so that order must
// be the shard's list (not its Go map, whose order changes every run) and
// the list must follow the simulated clock (not the wall's).
func TestDefragFiguresRepeat(t *testing.T) {
	cfg := DefaultDefragConfig(1.0 / 64)
	first, err := Figure9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Figure9(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Backends {
		a, b := first[name].Series.Points, second[name].Series.Points
		if len(a) != len(b) {
			t.Fatalf("%s: %d samples, then %d", name, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Errorf("%s: sample %d is %v, then %v", name, i, a[i], b[i])
				break
			}
		}
	}
}

func TestNewBackendUnknown(t *testing.T) {
	if _, err := newBackend("bogus", DefaultDefragConfig(0.01)); err == nil {
		t.Error("unknown backend accepted")
	}
}

func TestDefaultConfigScales(t *testing.T) {
	a := DefaultDefragConfig(1.0)
	b := DefaultDefragConfig(0.5)
	if b.MaxMemory*2 != a.MaxMemory {
		t.Errorf("scaling broken: %d vs %d", a.MaxMemory, b.MaxMemory)
	}
	if a.MaxMemory != 100<<20 {
		t.Errorf("full scale = %d, want the paper's 100 MiB", a.MaxMemory)
	}
}

func TestOptionsRespectStrictAliasing(t *testing.T) {
	for _, b := range []struct {
		name string
		sa   bool
	}{{"perlbench", true}, {"mcf", false}} {
		for _, wl := range allForTest() {
			if wl.Name != b.name {
				continue
			}
			opt := options(wl)
			if opt.Hoisting == b.sa {
				t.Errorf("%s: Hoisting = %v", b.name, opt.Hoisting)
			}
		}
	}
}
