#!/usr/bin/env bash
# One loopback smoke of alaskad — the shape every CI smoke step shares:
#
#   BIN=<dir> bash scripts/smoke.sh OUT [alaskad flags...] -- [alaska-loadgen flags...]
#
# Boots $BIN/alaskad with the flags before "--" (its stderr is also copied
# to OUT.err), waits SMOKE_WAIT seconds (default 1), runs
# $BIN/alaska-loadgen with the flags after "--" and copies its report to
# OUT, stops the server with signal SMOKE_SIGNAL (default TERM; KILL for a
# crash), and fails unless the report reads "errors: 0" and
# "protocol_errors 0". With SMOKE_KEEP=1 the server is left running for
# the caller's own checks and its PID is written to OUT.pid. Whatever else
# a smoke asserts, it asserts on OUT after this returns.
set -eu

out=$1
shift
server=()
while [ $# -gt 0 ] && [ "$1" != -- ]; do
  server+=("$1")
  shift
done
[ $# -gt 0 ] && shift

"$BIN"/alaskad "${server[@]}" 2> >(tee "$out.err" >&2) &
pid=$!
sleep "${SMOKE_WAIT:-1}"
"$BIN"/alaska-loadgen "$@" | tee "$out"
if [ "${SMOKE_KEEP:-0}" = 1 ]; then
  echo "$pid" > "$out.pid"
else
  kill -s "${SMOKE_SIGNAL:-TERM}" "$pid"
fi
grep -q 'errors: 0' "$out"
grep -q 'protocol_errors 0' "$out"
