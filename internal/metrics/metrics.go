// Package metrics encodes the Prometheus text exposition format (version
// 0.0.4) for the alaskad observability plane: a family header, plain
// samples, and histograms rendered straight off a stats.LatencyRecorder's
// buckets. It holds no state; the caller decides what to render and in
// which order, and owns the values. Writes go to a bufio.Writer, whose
// first error sticks and is what its Flush returns, so a renderer checks
// once at the end.
package metrics

import (
	"bufio"
	"strconv"

	"alaska/internal/stats"
)

// Kind is a family's Prometheus metric type.
type Kind string

const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// WriteHeader writes a family's # HELP and # TYPE lines; its samples
// follow.
func WriteHeader(w *bufio.Writer, name string, kind Kind, help string) {
	w.WriteString("# HELP " + name + " " + help + "\n# TYPE " + name + " " + string(kind) + "\n")
}

// WriteSample writes one `name{labels} value` line. labels is the
// pre-rendered label body, e.g. `op="get"`; "" for an unlabeled series.
func WriteSample(w *bufio.Writer, name, labels string, v float64) {
	writeSample(w, name, "", labels, "", v)
}

// WriteHistogram writes rec as cumulative le-buckets in seconds, plus _sum
// and _count — the standard Prometheus histogram triple. Every recorder
// shares the stats package's fixed bucket layout, so the children of one
// family are always mergeable downstream.
func WriteHistogram(w *bufio.Writer, name, labels string, rec *stats.LatencyRecorder) {
	var cum int64
	rec.ForEachBucket(func(boundNs, count int64) {
		cum += count
		le := "+Inf"
		if boundNs != stats.OverflowBound {
			le = strconv.FormatFloat(float64(boundNs)/1e9, 'g', -1, 64)
		}
		writeSample(w, name, "_bucket", labels, `le="`+le+`"`, float64(cum))
	})
	writeSample(w, name, "_sum", labels, "", rec.Sum().Seconds())
	writeSample(w, name, "_count", labels, "", float64(rec.Count()))
}

// writeSample writes one `name_suffix{labels,extra} value` line.
func writeSample(w *bufio.Writer, name, suffix, labels, extra string, v float64) {
	w.WriteString(name)
	w.WriteString(suffix)
	if extra != "" {
		if labels != "" {
			labels += ","
		}
		labels += extra
	}
	if labels != "" {
		w.WriteString("{" + labels + "}")
	}
	w.WriteString(" " + formatValue(v) + "\n")
}

// formatValue renders v the way Prometheus expects: integral values
// without an exponent or trailing zeros, everything else shortest-form.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
