// Package stats provides the small statistical and reporting toolkit the
// experiment harnesses share: geometric means, time series, CSV/table
// rendering, and the lock-free latency recorder (LatencyRecorder) the server
// and the load generator report percentiles from.
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// Geomean returns the geometric mean of (1 + x) - 1 over the inputs, the
// convention used for aggregating overhead percentages (a -3% entry is a
// 0.97 factor). Inputs are fractions (0.10 = 10%).
func Geomean(overheads []float64) float64 {
	if len(overheads) == 0 {
		return 0
	}
	var logSum float64
	for _, o := range overheads {
		f := 1 + o
		if f <= 0 {
			f = 1e-9
		}
		logSum += math.Log(f)
	}
	return math.Exp(logSum/float64(len(overheads))) - 1
}

// Point is one sample of a time series.
type Point struct {
	T time.Duration
	V float64
}

// Series is a named time series (e.g. one curve of Figure 9).
type Series struct {
	Name   string
	Points []Point
}

// Add appends a sample.
func (s *Series) Add(t time.Duration, v float64) {
	s.Points = append(s.Points, Point{t, v})
}

// At returns the value at or immediately before t (0 if before all data).
func (s *Series) At(t time.Duration) float64 {
	var v float64
	for _, p := range s.Points {
		if p.T > t {
			break
		}
		v = p.V
	}
	return v
}

// WriteCSV writes aligned series as CSV with a time column in seconds.
// Series are sampled at each distinct timestamp using At().
func WriteCSV(w io.Writer, series []*Series) error {
	tsSet := map[time.Duration]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			tsSet[p.T] = true
		}
	}
	ts := make([]time.Duration, 0, len(tsSet))
	for t := range tsSet {
		ts = append(ts, t)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	header := []string{"time_s"}
	for _, s := range series {
		header = append(header, s.Name)
	}
	if _, err := fmt.Fprintln(w, strings.Join(header, ",")); err != nil {
		return err
	}
	for _, t := range ts {
		row := []string{fmt.Sprintf("%.3f", t.Seconds())}
		for _, s := range series {
			row = append(row, fmt.Sprintf("%.3f", s.At(t)))
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// Table renders rows as an aligned text table.
func Table(w io.Writer, header []string, rows [][]string) error {
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(header)); err != nil {
		return err
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", len(line(header)))); err != nil {
		return err
	}
	for _, r := range rows {
		if _, err := fmt.Fprintln(w, line(r)); err != nil {
			return err
		}
	}
	return nil
}
