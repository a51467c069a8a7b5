#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it. Arguments pass through:
#   benchmark/run.sh                      every workload, untraced (same as `run`)
#   benchmark/run.sh trace | quick | selfcheck [N]
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
# See benchmark/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
if [ "$#" -eq 0 ]; then
    set -- run
fi
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
