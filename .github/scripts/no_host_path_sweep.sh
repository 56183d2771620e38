#!/bin/sh
# Fails when non-test code on the host-op path iterates the whole block
# status table or the flash block array (`bst.iter()`, `blocks…iter()`, on
# one line or split after the receiver as rustfmt does). Victim selection,
# the wear-spread trigger and the expired-delta prelude answer from state
# kept where it changes (`Bst`'s victim indices, `FlashArray`'s erase
# histogram, `DeltaManager`'s expired queue); a sweep here is paid by every
# host op. The functions in `allowed` are rate-limited and may stay sweeps:
# the cold-block pick runs after the spread and 64-erase checks, the
# utilisation count once per `n_fixed` writes. A `#[cfg(test)]` that opens
# an inline `mod … {` starts a file's test code, which is not scanned; any
# other `#[cfg(test)]` (an out-of-line `mod tests;`, one test-only item)
# does not end the scan.
status=0
# Every file that holds the skeleton or a `Retention` impl is scanned.
for f in crates/core/src/ftl.rs crates/core/src/regular.rs crates/core/src/flashguard.rs \
    crates/core/src/timessd/gc.rs crates/core/src/timessd/mod.rs; do
    awk -v file="$f" -v allowed="wear_level_victim space_utilization" '
        /^[ \t]*#\[cfg\(test\)\]/ { cfg_test = 1; next }
        cfg_test && /^[ \t]*mod [a-z_0-9]+ \{/ { exit }
        { cfg_test = 0 }
        /^[ \t]*\/\// { next }
        match($0, /fn [a-z_0-9]+/) { current = substr($0, RSTART + 3, RLENGTH - 3) }
        {
            sweep = /(bst|blocks)(\(\))?\.iter\(\)/ || (receiver && /^[ \t]*\.iter\(\)/)
            receiver = /(bst|blocks)(\(\))?[ \t]*$/
            if (sweep && index(" " allowed " ", " " current " ") == 0) {
                printf "%s:%d: in `%s`: %s\n", file, FNR, current, $0
                bad = 1
            }
        }
        END { exit bad }
    ' "$f" || status=1
done
[ "$status" -eq 0 ] || echo "ask Bst / FlashArray / DeltaManager for the maintained answer, or rate-limit the sweep and allowlist it here" >&2
exit "$status"
