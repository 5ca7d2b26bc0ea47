#!/usr/bin/env bash
# Hostile inputs against a live spand, run in CI and locally. Each case
# is one /v1/extract request that once took the process down or ran
# for seconds; each must now end in a typed answer, and spand must
# still answer /v1/healthz afterwards:
#
#   1. deep nesting: 600 000 nested groups (1.2 MB of expression) is a
#      400 "syntax", not a parser stack overflow;
#   2. the node cap: the 20 000-arm dictionary .*x{ab|…|c}.* (60 KB)
#      is a 413 "too_large", not seconds and gigabytes of compiling;
#   3. 13 nested +: x{((…(a+)+…)+)} doubles per level past the node
#      cap and is a 413 "too_large";
#   4. the 1 000-word gazetteer .*x{w1|…|w1000}.* (9 KB), which the
#      compiled tier does not take, over a 600 KB document: the
#      interpreted enumerator's reach would need 5.4 GB, so it is a 413
#      "too_large" in under 1 s, not 38 s and 7.8 GB;
#   5. limit 1 on a dense document just under the 8 MiB body cap:
#      a*x{a*}a* on a run of a, where every boundary is a DAG node,
#      answers 200 with one mapping in under 2 s, and spand's peak RSS
#      (VmHWM) stays under 256 MiB.
#
# Requires: go, curl, jq, and /proc (Linux) for the RSS check.
set -euo pipefail

workdir=$(mktemp -d)
port="${SPAND_PORT:-18083}"
base="http://127.0.0.1:$port"
pid=""

cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

die() { echo "hostile: FAIL: $*" >&2; exit 1; }

wait_ready() {
  for _ in $(seq 1 100); do
    if curl -sf "$base/v1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  die "spand did not become ready on $base"
}

# alive fails unless spand still runs and answers /v1/healthz.
alive() {
  kill -0 "$pid" 2>/dev/null || die "spand died after: $1"
  curl -sf "$base/v1/healthz" >/dev/null || die "spand stopped answering after: $1"
}

# expect posts the body file $2 to /v1/extract and checks the status
# ($3) and, for an error, the typed code ($4); the answer is left in
# $workdir/out and its wall time in seconds in $workdir/took.
expect() {
  local name=$1 body=$2 want=$3 code=${4:-}
  local status
  status=$(curl -s -o "$workdir/out" -w '%{http_code} %{time_total}' \
    -H 'Content-Type: application/json' --data-binary "@$body" "$base/v1/extract") \
    || die "$name: request failed"
  echo "${status#* }" >"$workdir/took"
  status=${status%% *}
  [ "$status" = "$want" ] || die "$name: status $status, want $want: $(head -c 300 "$workdir/out")"
  if [ -n "$code" ]; then
    got=$(jq -r '.error.code' "$workdir/out")
    [ "$got" = "$code" ] || die "$name: error code $got, want $code"
  fi
  alive "$name"
  echo "ok  $name: $status${code:+ $code} in $(cat "$workdir/took") s"
}

# repeat prints $2 copies of the string $1.
repeat() { head -c "$2" /dev/zero | tr '\0' "$1"; }

echo "== build and start"
go build -o "$workdir/spand" ./cmd/spand
"$workdir/spand" -addr "127.0.0.1:$port" &
pid=$!
wait_ready

echo "== cases"
{ printf '{"expr": "'; repeat '(' 600000; printf a; repeat ')' 600000; printf '", "docs": ["a"]}'; } >"$workdir/deep.json"
expect "deep nesting" "$workdir/deep.json" 400 syntax

{ printf '{"expr": ".*x{'; for _ in $(seq 1 19999); do printf 'ab|'; done; printf 'c}.*", "docs": ["ab"]}'; } >"$workdir/dict.json"
expect "node cap" "$workdir/dict.json" 413 too_large

{ printf '{"expr": "x{'; repeat '(' 13; printf a; for _ in $(seq 1 13); do printf '+)'; done; printf '}", "docs": ["a"]}'; } >"$workdir/plus.json"
expect "13 nested +" "$workdir/plus.json" 413 too_large

{
  printf '{"expr": ".*x{'
  awk 'BEGIN { srand(1); for (i = 0; i < 1000; i++) { w = ""; for (j = 0; j < 8; j++) w = w sprintf("%c", 97 + int(rand() * 26)); printf "%s%s", (i ? "|" : ""), w } }'
  printf '}.*", "docs": ["'
  awk 'BEGIN { for (i = 0; i < 61440; i++) printf "0123 4567 " }' # digits and spaces: no match
  printf '"]}'
} >"$workdir/gazetteer.json"
expect "uncompiled gazetteer on 600 KB" "$workdir/gazetteer.json" 413 too_large
awk -v t="$(cat "$workdir/took")" 'BEGIN { exit !(t < 1) }' \
  || die "refusing the gazetteer took $(cat "$workdir/took") s, want under 1 s"

# The body is 1 KiB under the default 8 MiB cap.
pre='{"expr": "a*x{a*}a*", "limit": 1, "docs": ["'
post='"]}'
n=$(((8 << 20) - 1024 - ${#pre} - ${#post}))
{ printf "%s" "$pre"; repeat a "$n"; printf "%s" "$post"; } >"$workdir/dense.json"
expect "limit 1 on a dense ${n}-byte document" "$workdir/dense.json" 200
mappings=$(jq '.results[0] | length' "$workdir/out")
[ "$mappings" = "1" ] || die "limit 1 answered $mappings mappings"
awk -v t="$(cat "$workdir/took")" 'BEGIN { exit !(t < 2) }' \
  || die "limit 1 on a dense document took $(cat "$workdir/took") s, want under 2 s"
hwm=$(awk '/^VmHWM:/ { print $2 }' "/proc/$pid/status")
echo "    spand VmHWM ${hwm} kB"
[ "$hwm" -lt $((256 * 1024)) ] || die "spand peak RSS ${hwm} kB, want under 256 MiB"

echo "hostile: all cases answered typed and spand is alive"
