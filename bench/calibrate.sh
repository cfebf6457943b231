#!/usr/bin/env bash
# calibrate.sh A [B]: what the driver does. Runs run.sh --trace 0 for seeds
# A..A+9 on every workload (then B..B+9), keeps each run's stdout in
# bench/out/calib/<first seed>/ (a run already there is not repeated), and
# prints per workload and metric the median, IQR/median (exclusive quartiles,
# as Python's statistics.quantiles) and how much worse set B's median is.
# Exit 1 if a gated spread (not setup_s's) or a median move exceeds its bound.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
workloads=$(grep -o '{"name": "[a-z_]*", "why"' "$here/../BENCHMARK.json" | cut -d'"' -f4)
for a in "$@"; do for w in $workloads; do for s in $(seq "$a" $((a + 9))); do
	f="$here/out/calib/$a/$w.$s.txt"; mkdir -p "${f%/*}"
	[[ -s $f ]] || bash "$here/run.sh" --workload "$w" --seed "$s" --seconds 20 --trace 0 >"$f" 2>"$f.err"
done; done; done
awk -v A="$1" -v B="${2:-}" -v dir="$here/out/calib" -v wls="$workloads" '
function q(v, n, pos,   i) { i = int(pos); i = i < 1 ? 1 : i > n - 1 ? n - 1 : i; return v[i] + (pos - i) * (v[i+1] - v[i]) }
function stats(set, w, m,   n, i, j, t, v, f, ls, line, last) {   # sets MED and IQR
	n = 0; ls = "ls " dir "/" set "/" w ".*.txt"
	while ((ls | getline f) > 0) {
		while ((getline line < f) > 0) last = line; close(f)
		if (match(last, "\"" m "\":[{]\"value\":[-0-9.e+]*")) { t = substr(last, RSTART, RLENGTH); sub(/.*:/, "", t); v[++n] = t + 0 }
	}
	close(ls); for (i = 2; i <= n; i++) for (j = i; j > 1 && v[j-1] > v[j]; j--) { t = v[j]; v[j] = v[j-1]; v[j-1] = t }
	MED = (v[int((n+1)/2)] + v[int((n+2)/2)]) / 2
	IQR = (n > 1 && MED != 0) ? (q(v, n, 3 * (n+1) / 4) - q(v, n, (n+1) / 4)) / MED : 0
}
/"bound"/ { split($0, p, "\""); names[++k] = p[4]; better[p[4]] = p[12]; s = $0; sub(/.*"bound": */, "", s); bound[p[4]] = s + 0 }
END {
	nw = split(wls, W, " "); hdr = B == "" ? "" : sprintf(" %11s %7s %7s", "median " B, "IQR/med", "worse")
	printf "%-14s %-18s %11s %7s%s\n", "workload", "metric", "median " A, "IQR/med", hdr
	for (x = 1; x <= nw; x++) for (y = 1; y <= k; y++) {
		m = names[y]; stats(A, W[x], m); ma = MED; flag = (m != "setup_s" && IQR > bound[m]) ? " SPREAD" : ""
		printf "%-14s %-18s %11.4f %6.1f%%", W[x], m, ma, 100 * IQR
		if (B != "") { stats(B, W[x], m); worse = (better[m] == "lower" ? MED - ma : ma - MED) / ma
			if (m != "setup_s" && IQR > bound[m]) flag = " SPREAD"; if (worse > bound[m]) flag = flag " MOVED"
			printf " %11.4f %6.1f%% %+6.1f%%", MED, 100 * IQR, 100 * worse }
		print flag; bad += flag != ""
	}
	exit bad > 0
}' "$here/../BENCHMARK.json"
