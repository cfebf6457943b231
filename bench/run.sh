#!/usr/bin/env bash
# Builds .bench_build/alaska-bench at the checkout root and execs it with the
# caller's arguments. Starts nothing — not even `go` — when the program the
# benchmark measures (../go.mod) is absent, and redirects no HOME/XDG/GOENV:
# a fresh config dir is what makes `go build` spawn its telemetry child.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [[ ! -f "$root/go.mod" ]]; then
	echo "bench/run.sh: $root/go.mod is missing: nothing to measure" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build/gocache"
(cd "$here" && GOTOOLCHAIN=local CGO_ENABLED=0 GOCACHE="$build/gocache" \
	go build -o "$build/alaska-bench" .)
cd "$root"
exec "$build/alaska-bench" "$@"
