#!/usr/bin/env bash
# End-to-end sharded-cluster check, run in CI and locally:
#
#   1. start three spand shards and a spangate over them,
#   2. register a spanner through the gate and assert the write
#      broadcast: every shard serves the same content-addressed
#      version directly,
#   3. run one mixed batch through the gate and through a single spand
#      holding the same registry, and assert the merged "results"
#      arrays are byte-identical and order-identical — the gate adds
#      shards, never reordering or re-encoding,
#   4. same differential for the NDJSON stream body,
#   5. kill a shard while a batch is in flight and assert the gate
#      still answers that batch — and every later batch — with output
#      identical to the single spand, with its healthz degraded to the
#      surviving shards,
#   6. scrape the gate's /v1/metrics and assert the
#      spand_gate_* families carry the traffic driven above.
#
# Requires: go, curl, jq.
set -euo pipefail

workdir=$(mktemp -d)
gport="${SPANGATE_PORT:-18090}"
gbase="http://127.0.0.1:$gport"
sport0="${SPAND_PORT:-18091}"
pids=()

cleanup() {
  for p in "${pids[@]:-}"; do kill "$p" 2>/dev/null || true; done
  rm -rf "$workdir"
}
trap cleanup EXIT

die() { echo "cluster_roundtrip: FAIL: $*" >&2; exit 1; }

wait_ready() {
  for _ in $(seq 1 100); do
    if curl -sf "$1/v1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  die "$1 did not become ready"
}

echo "== build"
go build -o "$workdir/spand" ./cmd/spand
go build -o "$workdir/spangate" ./cmd/spangate

echo "== start 3 shards + gate + 1 reference spand"
shard_urls=()
for i in 0 1 2; do
  port=$((sport0 + i))
  "$workdir/spand" -addr "127.0.0.1:$port" -registry "$workdir/reg$i" &
  pids+=($!)
  shard_urls+=("http://127.0.0.1:$port")
done
ref_port=$((sport0 + 3))
ref_base="http://127.0.0.1:$ref_port"
"$workdir/spand" -addr "127.0.0.1:$ref_port" -registry "$workdir/regref" &
pids+=($!)
for u in "${shard_urls[@]}" "$ref_base"; do wait_ready "$u"; done

"$workdir/spangate" -addr "127.0.0.1:$gport" \
  -shards "$(IFS=,; echo "${shard_urls[*]}")" \
  -probe-interval 200ms -fail-threshold 2 -backoff 20ms &
gate_pid=$!
pids+=($gate_pid)
wait_ready "$gbase"

echo "== registry write through the gate broadcasts to every shard"
ver=$(curl -sf -X PUT "$gbase/v1/registry/seller" \
  -d '{"expr": ".*(Seller: x{[^,\\n]*},[^\\n]*\\n).*"}' | jq -r '.version') \
  || die "registry PUT via gate failed"
case "$ver" in [0-9a-f]*) ;; *) die "unexpected version $ver";; esac
for u in "${shard_urls[@]}"; do
  got=$(curl -sf "$u/v1/registry/seller" | jq -r '.version') \
    || die "shard $u missing broadcast artifact"
  [ "$got" = "$ver" ] || die "shard $u has version $got, want $ver"
done
# The reference spand gets the same registration so pinned queries
# compare across both paths.
refver=$(curl -sf -X PUT "$ref_base/v1/registry/seller" \
  -d '{"expr": ".*(Seller: x{[^,\\n]*},[^\\n]*\\n).*"}' | jq -r '.version')
[ "$refver" = "$ver" ] || die "content addressing disagrees: gate $ver vs reference $refver"

echo "== batch differential: gate vs single spand, byte-identical"
batch=$(jq -n --arg ref "seller@$ver" '{
  spanner: $ref,
  docs: [
    "Seller: Anna, 12 Hill St\nSeller: Bob, 1 Main Rd\n",
    "no sellers in this one\n",
    "Seller: Carol, 9 Oak Ave\nnoise\nSeller: Dan, 3 Elm St\n",
    "",
    "Seller: Eve, 7 Pine Rd\n"
  ]}')
gate_res=$(curl -sf "$gbase/v1/extract" -d "$batch" | jq -c '.results') \
  || die "batch via gate failed"
ref_res=$(curl -sf "$ref_base/v1/extract" -d "$batch" | jq -c '.results') \
  || die "batch via reference spand failed"
[ "$gate_res" = "$ref_res" ] || die "batch results diverge:
 gate: $gate_res
 ref:  $ref_res"
n=$(echo "$gate_res" | jq 'map(length) | add')
[ "$n" = "5" ] || die "batch extracted $n mappings total, want 5"

echo "== stream differential: gate vs single spand, byte-identical body"
sreq=$(jq -n --arg ref "seller@$ver" \
  '{spanner: $ref, doc: "Seller: Anna, 12 Hill St\nSeller: Bob, 1 Main Rd\n"}')
curl -sf "$gbase/v1/extract/stream" -d "$sreq" > "$workdir/gate.ndjson" \
  || die "stream via gate failed"
curl -sf "$ref_base/v1/extract/stream" -d "$sreq" > "$workdir/ref.ndjson" \
  || die "stream via reference spand failed"
cmp -s "$workdir/gate.ndjson" "$workdir/ref.ndjson" \
  || die "stream bodies differ: $(diff "$workdir/gate.ndjson" "$workdir/ref.ndjson" | head -3)"
[ -s "$workdir/gate.ndjson" ] || die "stream body is empty"

echo "== kill a shard mid-batch; the gate keeps answering identically"
curl -sf "$gbase/v1/extract" -d "$batch" -o "$workdir/inflight.json" &
req_pid=$!
sleep 0.05
kill "${pids[2]}" 2>/dev/null || true
wait "$req_pid" || die "in-flight batch failed during the shard kill"
inflight=$(jq -c '.results' "$workdir/inflight.json")
[ "$inflight" = "$ref_res" ] || die "in-flight batch diverged after shard kill:
 gate: $inflight
 ref:  $ref_res"

# Every later batch keeps matching the reference, served by survivors.
for _ in 1 2 3; do
  got=$(curl -sf "$gbase/v1/extract" -d "$batch" | jq -c '.results') \
    || die "post-kill batch failed"
  [ "$got" = "$ref_res" ] || die "post-kill batch diverged:
 gate: $got
 ref:  $ref_res"
done

# The probes notice the dead shard: gate healthz degrades to 2/3.
for _ in $(seq 1 50); do
  status=$(curl -sf "$gbase/v1/healthz" | jq -r '.status')
  [ "$status" = "degraded" ] && break
  sleep 0.1
done
[ "$status" = "degraded" ] || die "gate healthz status=$status after shard kill, want degraded"
healthy=$(curl -sf "$gbase/v1/healthz" | jq -r '.healthy')
[ "$healthy" = "2" ] || die "gate reports $healthy healthy shards, want 2"

echo "== gate metrics exposition"
prom="$workdir/gate.prom"
curl -sf "$gbase/v1/metrics" > "$prom" || die "gate prom scrape failed"
for fam in spand_gate_shard_requests_total spand_gate_fanout_duration_seconds \
           spand_gate_stream_ttfb_seconds spand_gate_coalesced_total \
           spand_gate_shed_total spand_gate_retries_total \
           spand_gate_streamed_lines_total spand_gate_circuit_opens_total \
           spand_gate_in_flight spand_gate_healthy_shards; do
  grep -q "^# HELP $fam " "$prom" || die "gate family $fam missing # HELP"
  grep -q "^# TYPE $fam " "$prom" || die "gate family $fam missing # TYPE"
done
ok=$(awk -F' ' '/^spand_gate_shard_requests_total\{.*outcome="ok"/ {s += $2} END {print s+0}' "$prom")
[ "$ok" -ge 5 ] || die "spand_gate_shard_requests_total ok=$ok, want >= 5"
errs=$(awk -F' ' '/^spand_gate_shard_requests_total\{.*outcome="(error|timeout)"/ {s += $2} END {print s+0}' "$prom")
[ "$errs" -ge 1 ] || die "no error/timeout outcomes recorded after a shard kill"
hshards=$(awk '/^spand_gate_healthy_shards / {print $2}' "$prom")
[ "$hshards" = "2" ] || die "spand_gate_healthy_shards=$hshards, want 2"
lines=$(awk '/^spand_gate_streamed_lines_total / {print $2}' "$prom")
[ "$lines" -ge 2 ] || die "spand_gate_streamed_lines_total=$lines, want >= 2"

echo "cluster_roundtrip: PASS (broadcast registry, byte-identical batch + stream through 3 shards, shard killed mid-batch with identical output from the survivors, gate families live)"
