#!/usr/bin/env bash
# Prints the two sizes ROADMAP tracks: non-test and test Go lines outside
# bench/ (tracked files only, so build output never counts).
set -euo pipefail
cd "$(dirname "$0")/.."
count() { git ls-files -z -- '*.go' ':!bench/' | grep -z "$@" '_test\.go$' | xargs -0 cat | wc -l; }
echo "non-test Go lines outside bench/: $(count -v)"
echo "test Go lines outside bench/:     $(count -e)"
