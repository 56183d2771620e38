#!/bin/sh
# Fails when non-test code other than the scan engine reads the partition
# width. `amt_shards` is a query schedule (DESIGN.md §5g): it splits a
# query's LPA span into strided partitions and touches no table, timing or
# storage, which is why the oracle holds it with a query check and not a
# second device. So outside `crates/kits/src/engine.rs` it may appear only
# where it is declared and handed on: in core's config.rs the field (before
# any `fn`, shown as `-`), its default in `new` and `with_amt_shards`; in
# timessd/mod.rs `TimeSsd::amt_shards`; in timessd/query.rs the
# `SsdReadView` accessor and its `Debug` impl (`fmt`). Comment lines are
# skipped. A `#[cfg(test)]` that opens an inline `mod … {` starts a file's
# test code, which is not scanned, and neither is the out-of-line test
# module `tests.rs`.
status=0
for f in $(find crates/core/src crates/flash/src crates/nvme/src crates/trace/src crates/fs/src crates/kits/src -name '*.rs' ! -name tests.rs | sort); do
    case "$f" in
        crates/kits/src/engine.rs) continue ;;
        crates/core/src/config.rs) allowed="- new with_amt_shards" ;;
        crates/core/src/timessd/mod.rs) allowed="amt_shards" ;;
        crates/core/src/timessd/query.rs) allowed="amt_shards fmt" ;;
        *) allowed="" ;;
    esac
    awk -v file="$f" -v allowed="$allowed" '
        BEGIN { current = "-" }
        /^[ \t]*#\[cfg\(test\)\]/ { cfg_test = 1; next }
        cfg_test && /^[ \t]*mod [a-z_0-9]+ \{/ { exit }
        { cfg_test = 0 }
        /^[ \t]*\/\// { next }
        match($0, /fn [a-z_0-9]+/) { current = substr($0, RSTART + 3, RLENGTH - 3) }
        /amt_shards/ && index(" " allowed " ", " " current " ") == 0 {
            printf "%s:%d: in `%s`: %s\n", file, FNR, current, $0
            bad = 1
        }
        END { exit bad }
    ' "$f" || status=1
done
[ "$status" -eq 0 ] || echo "the partition width is the scan engine's (kits/src/engine.rs): take the answer from a query, not from amt_shards" >&2
exit "$status"
