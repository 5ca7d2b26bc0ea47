#!/usr/bin/env bash
# Documentation checks, run in CI and locally:
#
#   1. godoc coverage: every exported top-level symbol in the public
#      API files (spanners.go, marshal.go, rules.go) must carry a doc
#      comment on the line directly above its declaration.
#   2. link integrity: every relative markdown link in README.md and
#      docs/*.md must point at a file that exists.
#   3. comment references: every UPPERCASE.md a Go comment names must
#      be a file somewhere in the tree.
#
# Run from the repository root.
set -uo pipefail

fail=0

echo "== godoc coverage (public API files)"
for f in spanners.go marshal.go rules.go; do
  if [ ! -f "$f" ]; then
    echo "check_docs: missing public API file $f" >&2
    fail=1
    continue
  fi
  out=$(awk -v file="$f" '
    /^func [A-Z]/ || /^func \([^)]*\) [A-Z]/ || /^type [A-Z]/ || /^const [A-Z]/ || /^var [A-Z]/ {
      if (prev !~ /^\/\//) {
        printf "%s:%d: exported symbol without doc comment: %s\n", file, NR, $0
      }
    }
    { prev = $0 }
  ' "$f")
  if [ -n "$out" ]; then
    echo "$out" >&2
    fail=1
  fi
done

echo "== markdown links (README.md, docs/)"
for md in README.md docs/*.md; do
  [ -f "$md" ] || continue
  dir=$(dirname "$md")
  # Extract ](target) link targets; skip absolute URLs and pure anchors.
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|"#"*) continue ;;
    esac
    path="${target%%#*}"
    [ -n "$path" ] || continue
    if [ ! -e "$dir/$path" ] && [ ! -e "$path" ]; then
      echo "$md: broken relative link: $target" >&2
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$md" | sed -e 's/^](//' -e 's/)$//')
done

echo "== markdown files named in Go comments"
while IFS=: read -r file line text; do
  for name in $(grep -oE '[A-Z_]+\.md' <<<"${text#*//}"); do
    if [ -z "$(find . -name "$name" -not -path './.git/*' -not -path './.bench_build/*' -print -quit)" ]; then
      echo "$file:$line: comment names $name, which is not in the tree" >&2
      fail=1
    fi
  done
done < <(grep -rnE --include='*.go' --exclude-dir=.git --exclude-dir=.bench_build '//.*[A-Z_]+\.md' .)

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAIL" >&2
  exit 1
fi
echo "check_docs: PASS"
