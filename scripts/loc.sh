#!/usr/bin/env bash
# Counts the workspace's non-test Rust lines: every `.rs` file under
# crates/ and examples/ outside `tests/` directories, non-blank lines
# that are not `//` comments, stopping at the first `#[cfg(test)]` of
# each file. Usage: scripts/loc.sh [repo-root] (default: this checkout).
set -euo pipefail
cd "${1:-$(dirname "$0")/..}"
find crates examples -name '*.rs' -not -path '*/tests/*' -print0 | sort -z |
  xargs -0 awk '
    FNR == 1 { counting = 1 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { counting = 0 }
    counting && NF && !/^[[:space:]]*\/\// { lines++ }
    END { print lines + 0 }'
