#!/usr/bin/env bash
# Lists the `pub fn`s and `pub const`s under crates/*/src whose name
# appears in no other .rs file of crates/, src/, examples/, tests/ or
# perfbench/: candidates for deletion, or for narrowing to private.
#
# Usage (from anywhere in the repository):
#   ./scripts/unreached_pub.sh
#
# Each line is `file:line kind name  non-test=N test=M`, where N and M count
# the name's other uses in its own file, outside and inside its
# `#[cfg(test)]` module (the definition line is not counted). A listed
# item with N = 0 serves only its own tests, or nothing. The match is by
# name, so an item that shares its name with something in another file
# (`new`, `len`) is never listed. The last line is the total, split by
# kind.
set -euo pipefail
cd "$(dirname "$0")/.."

list=$(mktemp)
trap 'rm -f "$list"' EXIT

# One awk process must see every file, so no xargs (it may split the list).
mapfile -t sources < <(find crates src examples tests perfbench -name target -prune -o -name '*.rs' -print | sort)
awk '
    FNR == 1 { in_test = 0 }
    /^#\[cfg\(test\)\]/ { in_test = 1 }
    {
        line = $0
        # Definitions: only in the non-test part of crates/*/src.
        if (!in_test && FILENAME ~ /^crates\/[^\/]+\/src\// &&
            match(line, /^[ \t]*pub (const )?(unsafe )?fn [A-Za-z_][A-Za-z0-9_]*/)) {
            def = substr(line, RSTART, RLENGTH)
            sub(/.* fn /, "", def)
            defs[FILENAME SUBSEP def] = FNR
            kind[FILENAME SUBSEP def] = "fn"
        } else if (!in_test && FILENAME ~ /^crates\/[^\/]+\/src\// &&
            match(line, /^[ \t]*pub const [A-Za-z_][A-Za-z0-9_]*[ \t]*:/)) {
            def = substr(line, RSTART, RLENGTH)
            sub(/.*pub const /, "", def)
            sub(/[ \t]*:$/, "", def)
            defs[FILENAME SUBSEP def] = FNR
            kind[FILENAME SUBSEP def] = "const"
        }
        n = split(line, words, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= n; i++) {
            w = words[i]
            if (w == "") continue
            if (!((w SUBSEP FILENAME) in seen)) {
                seen[w SUBSEP FILENAME] = 1
                files[w]++
            }
            if (in_test) test_uses[FILENAME SUBSEP w]++
            else uses[FILENAME SUBSEP w]++
        }
    }
    END {
        for (k in defs) {
            split(k, parts, SUBSEP)
            file = parts[1]; name = parts[2]
            if (files[name] != 1) continue
            # The definition line itself names the item once.
            printf "%s:%d %s %s  non-test=%d test=%d\n", file, defs[k], kind[k],
                name, uses[k] - 1, test_uses[k] + 0
        }
    }
' "${sources[@]}" | sort -t: -k1,1 -k2,2n >"$list"
cat "$list"
echo "total: $(wc -l <"$list") ($(grep -c ' fn ' "$list") pub fn, $(grep -c ' const ' "$list") pub const)"
