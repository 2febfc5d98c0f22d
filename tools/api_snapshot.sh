#!/usr/bin/env bash
# Snapshot the workspace's public API surface into a sorted, diffable
# golden file, or verify the committed golden is current.
#
#   tools/api_snapshot.sh            # rewrite API_SURFACE.txt
#   tools/api_snapshot.sh --check    # diff against API_SURFACE.txt; exit 1
#                                    # on drift (the CI api-surface job and
#                                    # tests/api_surface.rs)
#   tools/api_snapshot.sh --lines    # print the non-test line count of
#                                    # crates/*/src (binaries included)
#
# The snapshot is every `pub` item line in the library sources (the
# umbrella crate plus crates/*/src), excluding binaries, benches, and test
# code. Test code is a `#[cfg(test)]` that is followed by an inline
# `mod name {` (skipped up to the closing brace at the `mod`'s indent), or
# a whole file whose module is declared as `#[cfg(test)] mod name;`. Any
# other `#[cfg(test)]` (on a statement, a function, an out-of-line module
# declaration) hides nothing after it. `pub(crate)`/`pub(super)` items
# are not public API and are not matched. This is a textual tripwire, not
# a semantic API model: any intentional surface change is a one-command
# regeneration away, while an accidental one fails CI with a readable diff.
set -euo pipefail
cd "$(dirname "$0")/.."

GOLDEN="API_SURFACE.txt"

# The files that the `#[cfg(test)] mod name;` declarations in "$@" load:
# `dir/name.rs` beside a lib.rs/mod.rs, `dir/stem/name.rs` otherwise.
test_module_files() {
    awk '
        pending && /^[[:space:]]*mod [A-Za-z0-9_]+;/ {
            name = $2
            sub(/;.*/, "", name)
            dir = FILENAME
            sub(/[^\/]*$/, "", dir)
            stem = FILENAME
            sub(/.*\//, "", stem)
            sub(/\.rs$/, "", stem)
            if (stem != "lib" && stem != "mod" && stem != "main") dir = dir stem "/"
            print dir name ".rs"
        }
        /^[[:space:]]*#\[/ { pending = pending || /^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/; next }
        { pending = 0 }' "$@"
}

# Print the non-test lines of the given files as `FILENAME: line`.
non_test() {
    local skip_files
    skip_files=$(test_module_files "$@")
    awk -v skip_files="$skip_files" '
        function flush() { printf "%s", held; held = "" }
        BEGIN { n = split(skip_files, f, "\n"); for (i = 1; i <= n; i++) test_file[f[i]] = 1 }
        FNR == 1 { flush(); pending = 0; end = "" }
        test_file[FILENAME] { next }
        end != "" { if ($0 == end) end = ""; next }
        /^[[:space:]]*#\[/ {
            held = held FILENAME ": " $0 "\n"
            if (/^[[:space:]]*#\[cfg\(test\)\][[:space:]]*$/) pending = 1
            next
        }
        pending && /^[[:space:]]*(pub(\([a-z]+\))? )?mod [A-Za-z0-9_]+ \{[[:space:]]*$/ {
            held = ""
            pending = 0
            end = $0
            sub(/[^[:space:]].*$/, "", end)
            end = end "}"
            next
        }
        { flush(); pending = 0; print FILENAME ": " $0 }
        END { flush() }' "$@"
}

snapshot() {
    local files=()
    mapfile -d '' files < <(find src/lib.rs crates/*/src -name '*.rs' \
        ! -path '*/bin/*' ! -path '*/benches/*' ! -path '*/tests/*' -print0 | LC_ALL=C sort -z)
    non_test "${files[@]}" |
        awk '
            /^[^:]*: [[:space:]]*pub (fn|struct|enum|trait|type|const|static|mod|use|macro_rules!) / {
                file = $0
                sub(/: .*/, "", file)
                line = substr($0, length(file) + 3)
                sub(/^[[:space:]]+/, "", line)
                sub(/[[:space:]]*\{[^}]*$/, "", line)
                sub(/[[:space:]]+$/, "", line)
                print file ": " line
            }' |
        LC_ALL=C sort
}

case "${1:---write}" in
--write)
    snapshot >"$GOLDEN"
    echo "wrote $GOLDEN ($(wc -l <"$GOLDEN") items)"
    ;;
--check)
    if ! snapshot | diff -u "$GOLDEN" - >&2; then
        echo "error: public API surface drifted from $GOLDEN." >&2
        echo "If the change is intentional, run tools/api_snapshot.sh and commit the result." >&2
        exit 1
    fi
    echo "$GOLDEN is current"
    ;;
--lines)
    files=()
    mapfile -d '' files < <(find crates/*/src -name '*.rs' -print0 | LC_ALL=C sort -z)
    non_test "${files[@]}" | wc -l
    ;;
*)
    echo "usage: tools/api_snapshot.sh [--write|--check|--lines]" >&2
    exit 2
    ;;
esac
