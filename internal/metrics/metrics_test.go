package metrics

import (
	"bufio"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"alaska/internal/stats"
)

// render runs fn against a buffered writer and returns what it wrote.
func render(t *testing.T, fn func(w *bufio.Writer)) string {
	t.Helper()
	var sb strings.Builder
	w := bufio.NewWriter(&sb)
	fn(w)
	if err := w.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return sb.String()
}

func TestCounterAndGaugeRendering(t *testing.T) {
	out := render(t, func(w *bufio.Writer) {
		WriteHeader(w, "test_ops_total", KindCounter, "Ops.")
		WriteSample(w, "test_ops_total", "", 42)
		WriteHeader(w, "test_items", KindGauge, "Items.")
		WriteSample(w, "test_items", "", 7)
		WriteSample(w, "test_ratio", "", 1.25)
	})
	for _, want := range []string{
		"# HELP test_ops_total Ops.\n# TYPE test_ops_total counter\ntest_ops_total 42\n",
		"# TYPE test_items gauge\ntest_items 7\n",
		"test_ratio 1.25\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestLabeledSampleRendering(t *testing.T) {
	out := render(t, func(w *bufio.Writer) {
		WriteSample(w, "test_cmds_total", `op="get"`, 6)
		WriteSample(w, "test_big", "", 1<<53)
	})
	if want := "test_cmds_total{op=\"get\"} 6\ntest_big 9007199254740992\n"; out != want {
		t.Fatalf("got %q, want %q", out, want)
	}
}

func TestHistogramRendering(t *testing.T) {
	rec := stats.NewLatencyRecorder()
	rec.Record(3 * time.Microsecond)
	rec.Record(5 * time.Millisecond)
	rec.Record(time.Hour) // overflow bucket
	out := render(t, func(w *bufio.Writer) {
		WriteHeader(w, "test_latency_seconds", KindHistogram, "Latency.")
		WriteHistogram(w, "test_latency_seconds", `op="get"`, rec)
	})
	if !strings.Contains(out, "# TYPE test_latency_seconds histogram") {
		t.Fatalf("missing TYPE line:\n%s", out)
	}
	if !strings.Contains(out, `test_latency_seconds_bucket{op="get",le="+Inf"} 3`) {
		t.Fatalf("+Inf bucket must be cumulative total:\n%s", out)
	}
	if !strings.Contains(out, `test_latency_seconds_count{op="get"} 3`) {
		t.Fatalf("missing _count:\n%s", out)
	}
	if !strings.Contains(out, `test_latency_seconds_sum{op="get"} `) {
		t.Fatalf("missing _sum:\n%s", out)
	}

	// Buckets are cumulative and non-decreasing.
	var prev float64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "test_latency_seconds_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("buckets not cumulative at %q (prev %v)", line, prev)
		}
		prev = v
	}
}

// TestConcurrentRecordDuringScrape proves recording never serializes
// against rendering (run under -race).
func TestConcurrentRecordDuringScrape(t *testing.T) {
	rec := stats.NewLatencyRecorder()
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec.Record(time.Microsecond)
			}
		}()
	}
	for i := 0; i < 50; i++ {
		render(t, func(w *bufio.Writer) { WriteHistogram(w, "test_hot_seconds", "", rec) })
	}
	close(stop)
	wg.Wait()
}
