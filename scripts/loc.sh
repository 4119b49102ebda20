#!/usr/bin/env bash
# loc.sh — the net Go line count of a change. Prints the non-test and test
# lines of Go outside perfbench/ (the separate benchmark module) in the work
# tree, including untracked files, and at REF, then the difference.
#
#   scripts/loc.sh           # work tree against HEAD
#   scripts/loc.sh HEAD^1    # work tree against the parent commit
set -euo pipefail
cd "$(dirname "$0")/.."

ref="${1:-HEAD}"
if ! git rev-parse --verify --quiet "${ref}^{commit}" >/dev/null; then
  echo "loc.sh: unknown ref ${ref}" >&2
  exit 2
fi

# sum reads "path<TAB>lines" records and prints "non-test test".
sum() {
  awk -F'\t' '$1 !~ /^perfbench\// {
    if ($1 ~ /_test\.go$/) t += $2; else n += $2
  } END { printf "%d %d\n", n, t }'
}

worktree() {
  git ls-files -z --cached --others --exclude-standard -- '*.go' |
    while IFS= read -r -d '' f; do
      if [ -f "$f" ]; then printf '%s\t%s\n' "$f" "$(wc -l <"$f")"; fi
    done
}

# git grep prints "REF:path:count"; strip the ref and split off the count.
atref() {
  git grep -c -e '' "$ref" -- '*.go' | cut -c$((${#ref} + 2))- |
    awk '{ n = $0; sub(/.*:/, "", n); sub(/:[0-9]+$/, ""); printf "%s\t%s\n", $0, n }'
}

read -r tree_n tree_t < <(worktree | sum)
read -r ref_n ref_t < <(atref | sum)

printf '%-12s %10s %10s\n' "" "non-test" "test"
printf '%-12s %10d %10d\n' "work tree" "$tree_n" "$tree_t"
printf '%-12s %10d %10d\n' "$ref" "$ref_n" "$ref_t"
printf '%-12s %+10d %+10d\n' "difference" $((tree_n - ref_n)) $((tree_t - ref_t))
