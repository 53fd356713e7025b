#!/usr/bin/env bash
# Lists the `pub fn`s, `pub const`s and `pub` types under crates/*/src
# that nothing outside their own file reaches, in three lists: candidates
# for deletion, or for narrowing to private. All print; none gates
# anything.
#
# Usage (from anywhere in the repository):
#   ./scripts/unreached_pub.sh
#
# The first list holds each `pub fn` and `pub const` whose name appears in
# no other .rs file of crates/, src/, examples/, tests/ or perfbench/. Each
# line is `file:line kind name  non-test=N test=M`, where N and M count
# the name's other uses in its own file, outside and inside its
# `#[cfg(test)]` module (the definition line is not counted). A listed
# item with N = 0 serves only its own tests, or nothing. Its last line,
# `total: ...`, is the count split by kind.
#
# The second list holds each other `pub fn` that other files name only in
# test code (a file under a `tests/` directory, or the lines after a
# file's `#[cfg(test)]`), or only in comments and string literals, or
# only where they define a `pub fn` or `pub const` of that name: none is a
# use here. Each line adds `elsewhere-test=K`, the uses in other files'
# test code. Its last line is `test-only total: ...`.
#
# The third list holds each `pub struct`, `pub enum`, `pub trait` and
# `pub type` whose name appears in no other .rs file, apart from the
# `pub use` statements of its own crate's lib.rs (a re-export alone is
# not a use). Its lines have the first list's form, and its last line is
# `type total: ...`. It finds a type whose methods the first two lists
# miss because they share their names (`new`, `record`) with used ones.
#
# The match is by name, so an item that shares its name with something
# used in another file's non-test code (`new`, `len`) is never listed.
set -euo pipefail
cd "$(dirname "$0")/.."

list=$(mktemp)

# One awk process must see every file, so no xargs (it may split the list).
mapfile -t sources < <(find crates src examples tests perfbench -name target -prune -o -name '*.rs' -print | sort)
tested=$(mktemp)
types=$(mktemp)
trap 'rm -f "$list" "$tested" "$types"' EXIT

awk -v tested="$tested" -v types="$types" '
    FNR == 1 {
        in_test = 0
        in_reexport = 0
        nfiles++
        names[nfiles] = FILENAME
        # Every line of a file under a tests/ directory is test code.
        test_file = FILENAME ~ /(^|\/)tests\//
    }
    /^#\[cfg\(test\)\]/ { in_test = 1 }
    # A `pub use` statement of a crate root, which may span lines.
    FILENAME ~ /^crates\/[^\/]+\/src\/lib\.rs$/ && /^pub use / { in_reexport = 1 }
    {
        line = $0
        def = ""
        reexport = in_reexport
        if (in_reexport && line ~ /;/) in_reexport = 0
        if (!in_test && FILENAME ~ /^crates\/[^\/]+\/src\// &&
            match(line, /^[ \t]*pub (struct|enum|trait|type) [A-Za-z_][A-Za-z0-9_]*/)) {
            tdef = substr(line, RSTART, RLENGTH)
            sub(/^[ \t]*pub /, "", tdef)
            split(tdef, parts, " ")
            tdefs[FILENAME SUBSEP parts[2]] = FNR
            tkind[FILENAME SUBSEP parts[2]] = parts[1]
        }
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
            if (reexport) reexported[FILENAME SUBSEP w] = 1
            else named[FILENAME SUBSEP w] = 1
            if (in_test) test_uses[FILENAME SUBSEP w]++
            else uses[FILENAME SUBSEP w]++
        }
        # Uses in code, for the second list: string literals and comments
        # stripped, and a definition does not use the name it defines.
        code = line
        gsub(/"([^"\\]|\\.)*"/, "", code)
        sub(/\/\/.*/, "", code)
        n = split(code, words, /[^A-Za-z0-9_]+/)
        for (i = 1; i <= n; i++) {
            w = words[i]
            if (w == "" || w == def) continue
            if (in_test || test_file) code_test[FILENAME SUBSEP w]++
            else code_live[FILENAME SUBSEP w]++
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
        for (k in defs) {
            split(k, parts, SUBSEP)
            file = parts[1]; name = parts[2]
            if (kind[k] != "fn" || files[name] == 1) continue
            elsewhere = 0
            for (f = 1; f <= nfiles; f++) {
                other = names[f]
                if (other == file) continue
                if ((other SUBSEP name) in code_live) { elsewhere = -1; break }
                elsewhere += code_test[other SUBSEP name]
            }
            if (elsewhere < 0) continue
            printf("%s:%d %s %s  non-test=%d test=%d elsewhere-test=%d\n", file, defs[k],
                kind[k], name, uses[k] - 1, test_uses[k] + 0, elsewhere) > tested
        }
        for (k in tdefs) {
            split(k, parts, SUBSEP)
            file = parts[1]; name = parts[2]
            root = file
            sub(/\/src\/.*/, "/src/lib.rs", root)
            used = 0
            for (f = 1; f <= nfiles; f++) {
                other = names[f]
                if (other == file) continue
                if ((other SUBSEP name) in named ||
                    (other != root && (other SUBSEP name) in reexported)) { used = 1; break }
            }
            if (used) continue
            printf("%s:%d %s %s  non-test=%d test=%d\n", file, tdefs[k], tkind[k], name,
                uses[k] - 1, test_uses[k] + 0) > types
        }
    }
' "${sources[@]}" | sort -t: -k1,1 -k2,2n >"$list"
cat "$list"
echo "total: $(wc -l <"$list") ($(grep -c ' fn ' "$list") pub fn, $(grep -c ' const ' "$list") pub const)"
sort -t: -k1,1 -k2,2n "$tested"
echo "test-only total: $(wc -l <"$tested") pub fn"
sort -t: -k1,1 -k2,2n "$types"
echo "type total: $(wc -l <"$types") ($(grep -c ' struct ' "$types") pub struct, $(grep -c ' enum ' "$types") pub enum, $(grep -c ' trait ' "$types") pub trait, $(grep -c ' type ' "$types") pub type)"
