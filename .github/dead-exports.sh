#!/usr/bin/env bash
# Print every `val` exported by lib/**/*.mli that no other module names,
# and exit 1 when there is one.  Run from the repository root:
#
#   bash .github/dead-exports.sh
#   bash .github/dead-exports.sh --test-only
#
# --test-only leaves test/ out of the search, then compares what it finds
# with the "path: name — reason" lines of .github/test-only-exports.txt:
# it exits 1 on an export that only tests name and that is not listed,
# and on a listed one that something outside test/ names (or nothing
# names at all, which the plain mode reports).
#
# A use is module-qualified, so an export called `create` does not count
# as used because some other module says `create`:
#   - a top-level `val v` of x.mli is used by `X.v` (which also matches
#     `Wj_lib.X.v`), or by `A.v` in a file that declares `module A = ...X`;
#   - a `val v` inside `module S : sig ... end` is used by `S.v`, or by
#     `A.v` in a file that declares `module A = ...S`.
# Uses inside x.ml and x.mli themselves do not count.
set -euo pipefail

dirs="lib bin bench examples test"
[ "${1:-}" = --test-only ] && dirs="lib bin bench examples"
files=$(find $dirs -name '*.ml' -o -name '*.mli' | sort)
id="[A-Za-z0-9_']"

# [named q v others...]: some file of [others] names [v] through [q] or
# through a module alias of [q].
named() {
  local q=$1 v=$2
  shift 2
  grep -qE "(^|[^A-Za-z0-9_'.])([A-Z]$id*\.)*$q\.$v(\$|[^A-Za-z0-9_'])" "$@" && return 0
  local f a
  while IFS=: read -r f a; do
    grep -qE "(^|[^A-Za-z0-9_'.])$a\.$v(\$|[^A-Za-z0-9_'])" "$f" && return 0
  done < <(grep -HE "^ *module [A-Z]$id* = ([A-Z]$id*\.)*$q *\$" "$@" \
             | sed -E "s/^([^:]*):[[:space:]]*module ([A-Z]$id*) = .*/\1:\2/")
  return 1
}

dead=""
for mli in $(find lib -name '*.mli' | sort); do
  base=${mli%.mli}
  name=$(basename "$base")
  x="$(tr '[:lower:]' '[:upper:]' <<<"${name:0:1}")${name:1}"
  # shellcheck disable=SC2086
  others=$(grep -v "^$base\.mli\?\$" <<<"$files")
  # One "qualifier val" line per export: the enclosing [module S : sig],
  # or the file's own module at top level.
  while read -r q v; do
    # shellcheck disable=SC2086
    named "$q" "$v" $others || dead+="$mli: $q.$v"$'\n'
  done < <(awk -v top="$x" '
    match($0, /^ *module [A-Z][A-Za-z0-9_'"'"']* *: *sig/) {
      ind = match($0, /[^ ]/) - 1
      n = $0; sub(/^ *module /, "", n); sub(/[ :].*/, "", n)
      depth++; names[depth] = n; inds[depth] = ind; next
    }
    depth > 0 && /^ *end/ && match($0, /[^ ]/) - 1 == inds[depth] { depth--; next }
    /^ *val [a-z_]/ {
      v = $0; sub(/^ *val /, "", v); sub(/[^A-Za-z0-9_'"'"'].*/, "", v)
      print (depth > 0 ? names[depth] : top), v
    }' "$mli" | sort -u)
done

if [ "${1:-}" = --test-only ]; then
  found=$(printf '%s' "$dead" | sort)
  listed=$(sed -n 's/^\(lib\/[^ ]*: [^ ]*\) — .*/\1/p' .github/test-only-exports.txt | sort)
  unlisted=$(comm -23 <(echo "$found") <(echo "$listed") | sed '/^$/d')
  stale=$(comm -13 <(echo "$found") <(echo "$listed") | sed '/^$/d')
  if [ -n "$unlisted" ]; then
    echo "named only by tests; delete the export or list it with a reason:"; echo "$unlisted"
  fi
  if [ -n "$stale" ]; then
    echo "listed as test-only but no longer are; drop their lines:"; echo "$stale"
  fi
  [ -z "$unlisted" ] && [ -z "$stale" ]
elif [ -n "$dead" ]; then
  echo "exported but named by no other module:"
  printf '%s' "$dead"
  exit 1
fi
