package stats

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestGeomean(t *testing.T) {
	if g := Geomean(nil); g != 0 {
		t.Errorf("Geomean(nil) = %v", g)
	}
	// Symmetric factors cancel: +100% and -50% give 0.
	if g := Geomean([]float64{1.0, -0.5}); !almost(g, 0) {
		t.Errorf("Geomean(+100%%, -50%%) = %v, want 0", g)
	}
	if g := Geomean([]float64{0.1, 0.1, 0.1}); !almost(g, 0.1) {
		t.Errorf("Geomean of identical = %v, want 0.1", g)
	}
	// Negative overheads are legal (speedups).
	if g := Geomean([]float64{-0.11}); !almost(g, -0.11) {
		t.Errorf("Geomean(-11%%) = %v", g)
	}
}

func TestSeries(t *testing.T) {
	s := &Series{Name: "rss"}
	s.Add(0, 10)
	s.Add(time.Second, 20)
	s.Add(2*time.Second, 15)
	if v := s.At(1500 * time.Millisecond); v != 20 {
		t.Errorf("At(1.5s) = %v, want 20 (step interpolation)", v)
	}
	if v := s.At(-time.Second); v != 0 {
		t.Errorf("At before data = %v", v)
	}
}

func TestWriteCSV(t *testing.T) {
	a := &Series{Name: "a"}
	b := &Series{Name: "b"}
	a.Add(0, 1)
	a.Add(time.Second, 2)
	b.Add(500*time.Millisecond, 9)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, []*Series{a, b}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if lines[0] != "time_s,a,b" {
		t.Errorf("header = %q", lines[0])
	}
	if len(lines) != 4 { // header + 3 distinct timestamps
		t.Errorf("lines = %d: %q", len(lines), buf.String())
	}
}

func TestTable(t *testing.T) {
	var buf bytes.Buffer
	err := Table(&buf, []string{"name", "value"}, [][]string{
		{"short", "1"},
		{"a-much-longer-name", "22"},
	})
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "a-much-longer-name") || !strings.Contains(out, "name") {
		t.Errorf("table output:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Errorf("table has %d lines, want 4", len(lines))
	}
}
