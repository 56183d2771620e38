#!/bin/sh
# Fails when non-test code above the flash crate builds an `Lpa` from a raw
# sum. `(addr, cnt)` arithmetic belongs to `almanac_flash::LpaSpan`, whose
# constructors check it once; a hand-rolled `Lpa(addr + i)` is how the four
# span-arithmetic defects so far were written. A `#[cfg(test)]` that opens
# an inline `mod … {` starts a file's test code, which is not scanned.
status=0
for f in $(find crates/kits/src crates/nvme/src crates/trace/src crates/oracle/src -name '*.rs' | sort); do
    awk -v file="$f" '
        /^[ \t]*#\[cfg\(test\)\]/ { cfg_test = 1; next }
        cfg_test && /^[ \t]*mod [a-z_0-9]+ \{/ { exit }
        { cfg_test = 0 }
        /^[ \t]*\/\// { next }
        /Lpa\([^)]*\+/ { printf "%s:%d: %s\n", file, FNR, $0; bad = 1 }
        END { exit bad }
    ' "$f" || status=1
done
[ "$status" -eq 0 ] || echo "build the span with almanac_flash::LpaSpan and iterate it" >&2
exit "$status"
