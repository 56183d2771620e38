#!/bin/sh
# Fails when non-test core code keeps a second write pointer. A block's next
# page is its BST `written` (DESIGN.md §5h, "One write pointer per block"):
# page allocation reads it, and only a successful program advances it —
# `Ftl::program` for data pages, `DeltaManager::flush_filter` for delta
# pages. So this fails on any mention of `next_off` or `unreserve` (a cursor
# beside `written`, or a rewind of one), and on any `.written +=`, `-=` or
# `=` outside those two functions. Comment lines are skipped. A
# `#[cfg(test)]` that opens an inline `mod … {` starts a file's test code,
# which is not scanned, and neither is the out-of-line test module
# `tests.rs`.
status=0
for f in $(find crates/core/src -name '*.rs' ! -name tests.rs | sort); do
    awk -v file="$f" -v allowed="ftl.rs:program deltas.rs:flush_filter" '
        /^[ \t]*#\[cfg\(test\)\]/ { cfg_test = 1; next }
        cfg_test && /^[ \t]*mod [a-z_0-9]+ \{/ { exit }
        { cfg_test = 0 }
        /^[ \t]*\/\// { next }
        match($0, /fn [a-z_0-9]+/) { current = substr($0, RSTART + 3, RLENGTH - 3) }
        /next_off|unreserve/ { printf "%s:%d: %s\n", file, FNR, $0; bad = 1 }
        /\.written[ \t]*([-+]?=[^=])/ {
            n = split(file, parts, "/")
            if (index(" " allowed " ", " " parts[n] ":" current " ") == 0) {
                printf "%s:%d: in `%s`: %s\n", file, FNR, current, $0
                bad = 1
            }
        }
        END { exit bad }
    ' "$f" || status=1
done
[ "$status" -eq 0 ] || echo "read and advance the BST's \`written\`: a block has one write pointer" >&2
exit "$status"
