#!/usr/bin/env bash
# Prints the size-of-surface numbers the simplicity PRs report and the
# ROADMAP gates on (item 4: manager.rs lines, public set_*/enable_*,
# struct fields), as a markdown table — CI appends it to the job summary.
# Reads the source only; builds nothing.
set -euo pipefail
cd "$(dirname "$0")/.."

manager=crates/core/src/manager.rs

# The fields of the manager's state, one per line: `MetadataManager`
# itself plus `Inner` and `EpochQueue`, the two structs behind its
# bookkeeping and epoch-queue locks (the count PR 12 reported as 36).
fields() {
    awk '/^(pub )?struct (MetadataManager|Inner|EpochQueue) \{/ {on = 1; next}
         on && /^}/ {on = 0} on' "$manager" |
        grep -E '^    (pub(\([a-z]+\))? )?[a-z_]+: '
}

# Lines of the file before its `#[cfg(test)]` module that are neither
# blank nor a comment.
code_lines() {
    awk '/^#\[cfg\(test\)\]/ {exit} !/^[[:space:]]*(\/\/|$)/ {n++} END {print n + 0}' "$1"
}

echo "| Surface | Count |"
echo "|---|---|"
echo "| \`manager.rs\` lines | $(wc -l <"$manager") |"
echo "| public \`set_*\`/\`enable_*\` on \`MetadataManager\` | $(grep -cE '^    pub fn (set|enable)_' "$manager") |"
echo "| manager state fields (\`MetadataManager\` + \`Inner\` + \`EpochQueue\`) | $(fields | wc -l) |"
echo "| … of which atomics | $(fields | grep -c ': Atomic') |"
echo "| figure tests (\`crates/bench/tests/figures.rs\`) | $(grep -c '^#\[test\]' crates/bench/tests/figures.rs) |"
echo "| vendored crates under \`third_party/\` | $(find third_party -mindepth 1 -maxdepth 1 -type d | wc -l) |"
echo "| files tracked under \`results/\` | $(git ls-files results | wc -l) |"
echo "| distinct env vars read under \`crates/bench/src\` | $(grep -rhoE 'env::var(_os)?\("[A-Z0-9_]+"' crates/bench/src | grep -oE '"[A-Z0-9_]+"' | sort -u | wc -l) |"
for crate in crates/*/; do
    total=0
    while IFS= read -r file; do
        total=$((total + $(code_lines "$file")))
    done < <(find "$crate/src" -name '*.rs')
    echo "| \`$(basename "$crate")\` non-test, non-comment lines | $total |"
done
