#!/usr/bin/env bash
# Usage: cargo-test-filtered.sh <cargo test arguments, ending in a filter>
#
# Runs `cargo test` with the given arguments, but first lists what they
# select (`-- --list`) and fails when no listed line ends in ": test".
# A filter that matches nothing would otherwise pass silently, e.g. after
# the tests it named were renamed or deleted.
set -euo pipefail
listed=$(cargo test "$@" -- --list)
if ! grep -q ': test$' <<<"$listed"; then
  echo "cargo test $*: the filter matches no test" >&2
  exit 1
fi
exec cargo test "$@"
