#!/usr/bin/env bash
# Non-test Rust lines in crates/: one line per crate, then the total.
#
# Method: every .rs file outside tests/ directories, counted up to its
# first line that starts `#[cfg(test)]` at column 0, so a file's unit-test
# module drops out. Blank and comment lines above that cut count.
#
# Usage: scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
  find "$1" -name '*.rs' -not -path '*/tests/*' -print0 |
    xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }'
}

total=0
for crate in crates/*/; do
  n=$(count "$crate")
  printf '%7d  %s\n' "$n" "${crate%/}"
  total=$((total + n))
done
printf '%7d  total\n' "$total"
