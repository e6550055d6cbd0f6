#!/usr/bin/env bash
# The one benchmark command: builds the benchmark package (its own
# workspace, release profile) and runs it. Run from the repository root or
# anywhere else; see benchmark/README.md for the arguments.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
exec cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- "$@"
