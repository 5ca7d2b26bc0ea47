#!/usr/bin/env bash
# Route/spec drift check, run in CI and locally:
#
#   The /v1 routes that internal/httpapi/server.go registers must
#   match the paths documented in docs/openapi.yaml exactly, in both
#   directions — an endpoint added to the mux without a spec entry
#   fails, and so does a spec path with no backing route.
#
#   Each endpoint has one route: internal/httpapi/server.go and
#   internal/cluster/gate.go may register only "METHOD /v1/..."
#   patterns, passed as literals to HandleFunc/Handle, so an
#   unprefixed alias (or a helper that mounts one) fails the check.
#
# Both sides are normalized to "METHOD /v1/path" lines: the "{$}"
# trailing-slash alias of a list route is dropped, and spec paths are
# paired with their four-space-indented method keys.
#
# Run from the repository root.
set -uo pipefail

SERVER=internal/httpapi/server.go
GATE=internal/cluster/gate.go
SPEC=docs/openapi.yaml

fail=0
for f in "$SERVER" "$GATE" "$SPEC"; do
  if [ ! -f "$f" ]; then
    echo "check_openapi: missing $f" >&2
    exit 1
  fi
done

echo "== one /v1 route per endpoint"
for f in "$SERVER" "$GATE"; do
  bad=$({
    # Every mux registration takes a literal "METHOD /v1/..." pattern.
    grep -nE '\.Handle(Func)?\(' "$f" | grep -vE '\.Handle(Func)?\("[A-Z]+ /v1/'
    # No other method-qualified pattern literal may name a path
    # outside /v1 (a route helper would register it).
    grep -nE '"[A-Z]+ /[^"]*"' "$f" | grep -vE '"[A-Z]+ /v1/[^"]*"'
  } | sort -un)
  if [ -n "$bad" ]; then
    echo "$f registers a pattern outside METHOD /v1/:" >&2
    echo "$bad" | sed 's/^/  /' >&2
    fail=1
  fi
done

# Routes the server actually registers, as "METHOD /v1/path".
routes=$(
  grep -oE 'HandleFunc\("[A-Z]+ /v1/[^"]*"' "$SERVER" |
    sed -E 's/^HandleFunc\("([A-Z]+) (\/v1\/[^"]*)"$/\1 \2/' |
    grep -v '{\$}' | sort -u
)

# Paths + methods documented in the spec, as "METHOD /v1/path".
spec=$(
  awk '
    /^paths:/            { inpaths = 1; next }
    inpaths && /^[a-z]/  { inpaths = 0 }     # next top-level key ends paths:
    !inpaths             { next }
    /^  \/[^ :]*:$/      { path = $1; sub(/:$/, "", path); next }
    /^    (get|put|post|patch|delete|head|options):/ {
      method = $1; sub(/:.*/, "", method)
      printf "%s %s\n", toupper(method), path
    }
  ' "$SPEC" | sort -u
)

echo "== server routes vs docs/openapi.yaml"
missing_in_spec=$(comm -23 <(echo "$routes") <(echo "$spec"))
missing_in_server=$(comm -13 <(echo "$routes") <(echo "$spec"))

if [ -n "$missing_in_spec" ]; then
  echo "routes registered in $SERVER but absent from $SPEC:" >&2
  echo "$missing_in_spec" | sed 's/^/  /' >&2
  fail=1
fi
if [ -n "$missing_in_server" ]; then
  echo "paths documented in $SPEC but not registered in $SERVER:" >&2
  echo "$missing_in_server" | sed 's/^/  /' >&2
  fail=1
fi

if [ "$fail" -ne 0 ]; then
  echo "check_openapi: FAILED" >&2
  exit 1
fi
echo "check_openapi: OK ($(echo "$routes" | wc -l | tr -d ' ') routes in sync)"
