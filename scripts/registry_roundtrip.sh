#!/usr/bin/env bash
# End-to-end registry persistence check, run in CI and locally:
#
#   1. register a spanner offline with spanreg,
#   2. start spand over the registry and extract by pinned name@version,
#   3. kill the server, restart it on the same directory,
#   4. extract by the same pin again and assert — via the counters on
#      /v1/healthz and /v1/metrics — that the pre-warmed cache served
#      it with ZERO compile-cache misses (the artifact was decoded, not
#      recompiled),
#   5. serve a join ALGEBRA expression over the pinned pair and assert
#      the leaves cost zero expression-cache misses (leaf rebuilds are
#      accounted under algebra.leaf_builds, outside the LRU), the only
#      LRU miss is the composition itself, and the repeated expression
#      is a pure cache hit;
#   6. assert the same answers across the restart: an identical
#      request pair (one literal-free document, one matching document)
#      extracts 0 and 2 mappings from the freshly compiled spanner and
#      from the artifact-decoded one;
#   7. register a DIFFERENCE composition as a first-class algebra
#      artifact offline, restart with -precompose, and assert the
#      artifact survives the restart with zero compile-cache misses
#      and that its pinned composition is already cache-warm — the
#      equivalent algebra query arrives as a pure plan-cache hit.
#
# Requires: go, curl, jq.
set -euo pipefail

workdir=$(mktemp -d)
regdir="$workdir/registry"
port="${SPAND_PORT:-18080}"
base="http://127.0.0.1:$port"
pid=""

cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

die() { echo "registry_roundtrip: FAIL: $*" >&2; exit 1; }

wait_ready() {
  for _ in $(seq 1 100); do
    if curl -sf "$base/v1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  die "spand did not become ready on $base"
}

start_spand() {
  "$workdir/spand" -addr "127.0.0.1:$port" -registry "$regdir" "$@" &
  pid=$!
  wait_ready
}

stop_spand() {
  kill "$pid"
  wait "$pid" 2>/dev/null || true
  pid=""
}

# pair_probe drives an identical request pair against the pinned
# spanner — one document without its literal "Seller: " (must extract
# nothing), one matching document (must extract two mappings). It runs
# once against the fresh server and once after the restart.
pair_probe() {
  local resp n
  resp=$(curl -sf "$base/v1/extract" \
    -d "$(jq -n --arg ref "$ref" '{spanner: $ref, docs: ["no auction lines in this document\n"]}')") \
    || die "pair probe (literal-free doc) failed"
  n=$(echo "$resp" | jq -r '.results[0] | length')
  [ "$n" = "0" ] || die "literal-free document extracted $n mappings, want 0"
  resp=$(curl -sf "$base/v1/extract" \
    -d "$(jq -n --arg ref "$ref" '{spanner: $ref, docs: ["Seller: Anna, 12 Hill St\nSeller: Bob, 1 Main Rd\n"]}')") \
    || die "pair probe (matching doc) failed"
  n=$(echo "$resp" | jq -r '.results[0] | length')
  [ "$n" = "2" ] || die "matching document extracted $n mappings, want 2"
}

echo "== build"
go build -o "$workdir/spand" ./cmd/spand
go build -o "$workdir/spanreg" ./cmd/spanreg

echo "== register offline via spanreg"
ref=$("$workdir/spanreg" -dir "$regdir" register seller '.*(Seller: x{[^,\n]*},[^\n]*\n).*')
echo "registered $ref"
case "$ref" in seller@*) ;; *) die "unexpected ref $ref";; esac

echo "== first server: extract by pin"
start_spand
body=$(jq -n --arg ref "$ref" '{spanner: $ref, docs: ["Seller: Anna, 12 Hill St\nSeller: Bob, 1 Main Rd\n"]}')
resp=$(curl -sf "$base/v1/extract" -d "$body") || die "extract by pin failed"
names=$(echo "$resp" | jq -r '.results[0][].x.content' | paste -sd, -)
[ "$names" = "Anna,Bob" ] || die "extracted [$names], want [Anna,Bob]"

echo "== request-pair probe against the freshly compiled spanner"
pair_probe

echo "== register a second spanner over HTTP, then kill the server"
tax_ver=$(curl -sf -X PUT "$base/v1/registry/tax" -d '{"expr": ".*\\$y{[0-9,]+}\\n.*"}' | jq -r '.version') \
  || die "HTTP registration failed"
case "$tax_ver" in [0-9a-f][0-9a-f][0-9a-f]*) ;; *) die "unexpected tax version $tax_ver";; esac
stop_spand

echo "== restart on the same registry directory"
start_spand

health=$(curl -sf "$base/v1/healthz")
prewarmed=$(echo "$health" | jq -r '.registry.prewarmed')
[ "$prewarmed" = "2" ] || die "prewarmed=$prewarmed after restart, want 2"

resp=$(curl -sf "$base/v1/extract" -d "$body") || die "extract by pin after restart failed"
names=$(echo "$resp" | jq -r '.results[0][].x.content' | paste -sd, -)
[ "$names" = "Anna,Bob" ] || die "after restart extracted [$names], want [Anna,Bob]"

hz=$(curl -sf "$base/v1/healthz")
misses=$(echo "$hz" | jq -r '.spanner_cache.misses')
loads=$(echo "$hz" | jq -r '.registry.artifact_loads')
fallbacks=$(echo "$hz" | jq -r '.registry.source_fallbacks')
[ "$misses" = "0" ] || die "spanner_cache.misses=$misses after pre-warmed pinned extraction, want 0"
[ "$loads" = "2" ] || die "registry.artifact_loads=$loads, want 2"
[ "$fallbacks" = "0" ] || die "registry.source_fallbacks=$fallbacks, want 0"

metrics_misses=$(curl -sf "$base/v1/metrics" \
  | awk '/^spand_cache_events_total\{cache="spanner",event="miss"\} / {print $2}')
[ "$metrics_misses" = "0" ] || die "/v1/metrics reports $metrics_misses compile misses, want 0"

echo "== request-pair probe against the artifact-decoded spanner"
pair_probe

echo "== join the pinned pair server-side, post-restart"
joinbody=$(jq -n --arg e "join($ref, tax@$tax_ver)" '{algebra: $e, docs: ["Seller: Mark, ID7, $35,000\n"]}')
resp=$(curl -sf "$base/v1/extract" -d "$joinbody") || die "algebra join failed"
x=$(echo "$resp" | jq -r '.results[0][0].x.content')
y=$(echo "$resp" | jq -r '.results[0][0].y.content')
n=$(echo "$resp" | jq -r '.results[0] | length')
[ "$x" = "Mark" ] && [ "$y" = "35,000" ] && [ "$n" = "1" ] \
  || die "join extracted x=$x y=$y n=$n, want Mark / 35,000 / 1"

# The composition is the ONLY expression-LRU miss: both leaves were
# rebuilt from their manifest sources outside the LRU (counted in
# algebra.leaf_builds), so pinned-leaf traffic still costs zero
# compile-cache misses.
hz=$(curl -sf "$base/v1/healthz")
misses=$(echo "$hz" | jq -r '.spanner_cache.misses')
leaf_builds=$(echo "$hz" | jq -r '.algebra.leaf_builds')
compositions=$(echo "$hz" | jq -r '.algebra.compositions')
[ "$misses" = "1" ] || die "spanner_cache.misses=$misses after the join, want 1 (the composition only)"
[ "$leaf_builds" = "2" ] || die "algebra.leaf_builds=$leaf_builds, want 2"
[ "$compositions" = "1" ] || die "algebra.compositions=$compositions, want 1"

echo "== repeat the join: pure cache hit"
curl -sf "$base/v1/extract" -d "$joinbody" >/dev/null || die "repeated algebra join failed"
hz=$(curl -sf "$base/v1/healthz")
misses=$(echo "$hz" | jq -r '.spanner_cache.misses')
hits=$(echo "$hz" | jq -r '.algebra.cache_hits')
compositions=$(echo "$hz" | jq -r '.algebra.compositions')
[ "$misses" = "1" ] || die "repeat grew spanner_cache.misses to $misses, want 1"
[ "$hits" = "1" ] || die "algebra.cache_hits=$hits on repeat, want 1"
[ "$compositions" = "1" ] || die "repeat recomposed: compositions=$compositions, want 1"

echo "== difference composition as a first-class artifact, pre-composed at startup"
stop_spand
"$workdir/spanreg" -dir "$regdir" register runs 'x{a+}.*' >/dev/null
"$workdir/spanreg" -dir "$regdir" register pairs 'x{aa}.*' >/dev/null
diff_ref=$("$workdir/spanreg" -dir "$regdir" register-algebra rest 'difference(runs, pairs)')
case "$diff_ref" in rest@*) ;; *) die "unexpected difference ref $diff_ref";; esac

start_spand -precompose
health=$(curl -sf "$base/v1/healthz")
prewarmed=$(echo "$health" | jq -r '.registry.prewarmed')
[ "$prewarmed" = "5" ] || die "prewarmed=$prewarmed after -precompose restart, want 5"
pre=$(echo "$health" | jq -r '.algebra.precomposed')
[ "$pre" = "1" ] || die "algebra.precomposed=$pre after -precompose restart, want 1"

# The difference artifact itself serves by pin from the pre-warmed
# artifact cache with zero further compile misses: the only LRU miss
# on the whole server is the -precompose composition pass itself.
diffbody=$(jq -n --arg ref "$diff_ref" '{spanner: $ref, docs: ["aaab"]}')
resp=$(curl -sf "$base/v1/extract" -d "$diffbody") || die "difference artifact by pin failed"
n=$(echo "$resp" | jq -r '.results[0] | length')
[ "$n" = "2" ] || die "difference artifact extracted $n mappings, want 2 (a, aaa)"
misses=$(curl -sf "$base/v1/healthz" | jq -r '.spanner_cache.misses')
[ "$misses" = "1" ] || die "spanner_cache.misses=$misses serving the difference artifact, want 1 (the -precompose composition only)"

# -precompose already planned and composed the registered expression,
# so the equivalent ad-hoc algebra query never recomposes: it pins to
# the same leaf versions and hits the warm plan cache.
exprbody=$(jq -n '{algebra: "difference(runs, pairs)", docs: ["aaab"]}')
resp=$(curl -sf "$base/v1/extract" -d "$exprbody") || die "difference algebra query failed"
n=$(echo "$resp" | jq -r '.results[0] | length')
[ "$n" = "2" ] || die "difference query extracted $n mappings, want 2"
hz=$(curl -sf "$base/v1/healthz")
hits=$(echo "$hz" | jq -r '.algebra.cache_hits')
compositions=$(echo "$hz" | jq -r '.algebra.compositions')
misses=$(echo "$hz" | jq -r '.spanner_cache.misses')
[ "$hits" = "1" ] || die "algebra.cache_hits=$hits after pre-composed difference query, want 1"
[ "$compositions" = "1" ] || die "algebra.compositions=$compositions, want 1 (the -precompose pass only)"
[ "$misses" = "1" ] || die "difference traffic grew spanner_cache.misses to $misses, want 1"

echo "registry_roundtrip: PASS (pinned $ref served after restart with zero compile-cache misses; join(seller, tax) composed once, leaves LRU-miss-free, repeat cache hit; difference artifact $diff_ref pre-composed at startup and served as a pure plan-cache hit)"
