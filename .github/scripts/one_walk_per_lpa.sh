#!/bin/sh
# Fails when non-test code in kits or fs asks the device for a whole version
# chain or for a version by timestamp. Both walk the LPA's chain from its
# head: `version_chain` collects all of it, and `version_content` walks down
# to the version before decoding it. A query that already holds the version
# from its own walk (`versions`, `version_as_of`, `versions_in`) decodes it
# with `decode`; calling either of these instead walks the chain again
# (DESIGN.md §5g, "One walk per LPA"). Comment lines are skipped. A
# `#[cfg(test)]` that opens an inline `mod … {` starts a file's test code,
# which is not scanned, and neither is the out-of-line test module
# `tests.rs`.
status=0
for f in $(find crates/kits/src crates/fs/src -name '*.rs' ! -name tests.rs | sort); do
    awk -v file="$f" '
        /^[ \t]*#\[cfg\(test\)\]/ { cfg_test = 1; next }
        cfg_test && /^[ \t]*mod [a-z_0-9]+ \{/ { exit }
        { cfg_test = 0 }
        /^[ \t]*\/\// { next }
        /version_(content|chain)\(/ { printf "%s:%d: %s\n", file, FNR, $0; bad = 1 }
        END { exit bad }
    ' "$f" || status=1
done
[ "$status" -eq 0 ] || echo "walk once with versions / version_as_of / versions_in and decode what the walk yielded" >&2
exit "$status"
