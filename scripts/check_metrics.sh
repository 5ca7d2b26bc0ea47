#!/usr/bin/env bash
# Live validation of the /v1/metrics Prometheus exposition, run in CI
# and locally:
#
#   1. start spand and drive one batch and one streaming extraction
#      (plus a request that hits the extraction deadline) so the
#      histograms and counters are non-trivial,
#   2. scrape a bare /v1/metrics and validate the exposition shape:
#      every series name carries # HELP and # TYPE headers, no series
#      line is duplicated, histogram _bucket series are cumulative and
#      end in an le="+Inf" bucket equal to _count,
#   3. assert the PR's metric contract: spand_extract_duration_seconds
#      has per-stage series, spand_stream_emission_delay_seconds saw
#      one sample per streamed mapping, and the deadline 503 ticked
#      spand_deadline_expiries_total,
#   4. assert the one metrics surface: /v1/metrics answers the
#      exposition whatever the query asks, /v1/healthz carries the
#      service counters as JSON, and the unprefixed /metrics and
#      /healthz are 404,
#   5. assert the request-ID plumbing: an inbound X-Request-ID is
#      echoed and its trace is retrievable from /v1/debug/trace/{id},
#   6. assert the algebra planner contract: the per-operator
#      composition histogram carries an op="difference" series after a
#      difference query, and the per-rule planner rewrite counters are
#      pre-registered for every rule with the rewriting query ticking
#      its rule,
#   7. start a spangate over the spand and assert the cluster surface:
#      every spand_gate_* family is exposed with HELP/TYPE headers and
#      the driven batch + stream traffic lands on the shard-request
#      and streamed-lines counters,
#   8. assert no drift between the scrapes and the docs, both ways:
#      every family named on a # TYPE line of the spand or the
#      spangate scrape has a row in docs/OBSERVABILITY.md, and every
#      spand_* family with a row there is named on such a line.
#
# Requires: go, curl, jq.
set -euo pipefail

workdir=$(mktemp -d)
port="${SPAND_PORT:-18081}"
base="http://127.0.0.1:$port"
pid=""

gate_pid=""

cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  [ -n "$gate_pid" ] && kill "$gate_pid" 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

die() { echo "check_metrics: FAIL: $*" >&2; exit 1; }

wait_ready() {
  for _ in $(seq 1 100); do
    if curl -sf "$base/v1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  die "spand did not become ready on $base"
}

echo "== build and start"
go build -o "$workdir/spand" ./cmd/spand
"$workdir/spand" -addr "127.0.0.1:$port" -request-timeout 1s -registry "$workdir/registry" &
pid=$!
wait_ready

echo "== drive traffic"
batch=$(curl -sf "$base/v1/extract" \
  -H 'X-Request-ID: check-metrics-1' \
  -d '{"expr": ".*(Seller: x{[^,\\n]*},[^\\n]*\\n).*", "docs": ["Seller: Anna, 12 Hill St\nSeller: Bob, 1 Main Rd\n"]}') \
  || die "batch extract failed"
n=$(echo "$batch" | jq -r '.results[0] | length')
[ "$n" = "2" ] || die "batch extracted $n mappings, want 2"

stream_lines=$(curl -sf "$base/v1/extract/stream" \
  -d '{"expr": "x{a*}b", "doc": "aaab"}' | wc -l)
[ "$stream_lines" -ge 1 ] || die "stream produced no mappings"

# A document lifecycle: store, extract by reference twice (the second
# serve is an incremental-session hit), splice, extract again (a
# journal replay) — so the docstore and incremental families carry
# real traffic below.
seller='.*(Seller: x{[^,\\n]*},[^\\n]*\\n).*'
code=$(curl -s -o /dev/null -w '%{http_code}' -X PUT "$base/v1/documents/m1" \
  -d '{"text": "Seller: Anna, 12 Hill St\n"}')
[ "$code" = "201" ] || die "document PUT returned $code, want 201"
for _ in 1 2; do
  n=$(curl -sf "$base/v1/extract" -d "{\"expr\": \"$seller\", \"doc_ids\": [\"m1\"]}" \
    | jq -r '.results[0] | length')
  [ "$n" = "1" ] || die "by-reference extract got $n mappings, want 1"
done
curl -sf -X PATCH "$base/v1/documents/m1" \
  -d '{"offset": 25, "insert": "Seller: Bob, 1 Main Rd\n"}' >/dev/null \
  || die "document PATCH failed"
n=$(curl -sf "$base/v1/extract" -d "{\"expr\": \"$seller\", \"doc_ids\": [\"m1\"]}" \
  | jq -r '.results[0] | length')
[ "$n" = "2" ] || die "post-splice extract got $n mappings, want 2"

# Algebra planner + difference traffic: register two leaves over
# HTTP, run one join query the planner rewrites (projection pushdown)
# and one difference, so the per-rule rewrite counters and the
# per-operator composition histogram carry real samples below.
for leaf in 'xy .*x{[ab]}y{[ab]}.*' 'yz .*y{[ab]}z{[ab]*}.*'; do
  name=${leaf%% *}
  expr=${leaf#* }
  code=$(curl -s -o /dev/null -w '%{http_code}' -X PUT "$base/v1/registry/$name" \
    -d "$(jq -n --arg e "$expr" '{expr: $e}')")
  [ "$code" = "201" ] || die "registry PUT $name returned $code, want 201"
done
n=$(curl -sf "$base/v1/extract" \
  -d '{"algebra": "project(join(xy, yz), x)", "docs": ["abab"]}' \
  | jq -r '.results[0] | length') || die "rewriting algebra query failed"
[ "$n" -ge 1 ] || die "rewriting algebra query extracted $n mappings, want >= 1"
curl -sf "$base/v1/extract" -d '{"algebra": "difference(xy, xy)", "docs": ["abab"]}' >/dev/null \
  || die "difference algebra query failed"

# A pathological enumeration must hit the 1s deadline as a typed 503
# with a Retry-After hint.
code=$(curl -s -o /dev/null -w '%{http_code}' "$base/v1/extract" \
  -d "{\"expr\": \"a*x{a*}a*\", \"docs\": [\"$(printf 'a%.0s' $(seq 1 3000))\"]}")
[ "$code" = "503" ] || die "deadline request returned $code, want 503"
retry=$(curl -s -D - -o /dev/null "$base/v1/extract" \
  -d "{\"expr\": \"a*x{a*}a*\", \"docs\": [\"$(printf 'a%.0s' $(seq 1 3000))\"]}" \
  | tr -d '\r' | awk 'tolower($1) == "retry-after:" {print $2}')
[ "$retry" = "1" ] || die "Retry-After=$retry, want 1"

echo "== scrape and validate exposition shape"
prom="$workdir/metrics.prom"
curl -sf "$base/v1/metrics" > "$prom" || die "prom scrape failed"

ctype=$(curl -sf -o /dev/null -w '%{content_type}' "$base/v1/metrics")
case "$ctype" in
  text/plain*version=0.0.4*) ;;
  *) die "Content-Type $ctype is not the 0.0.4 text exposition" ;;
esac

# Every exposed family must carry both headers.
families=$(grep -v '^#' "$prom" | awk '{print $1}' | sed -E 's/\{.*//; s/_(bucket|sum|count)$//' | sort -u)
[ -n "$families" ] || die "exposition is empty"
for fam in $families; do
  grep -q "^# HELP $fam " "$prom" || die "family $fam has no # HELP line"
  grep -q "^# TYPE $fam " "$prom" || die "family $fam has no # TYPE line"
done

# No duplicate series (same name + label set twice is invalid).
dups=$(grep -v '^#' "$prom" | awk '{print $1}' | sort | uniq -d)
[ -z "$dups" ] || die "duplicate series: $dups"

# Histogram sanity: the +Inf bucket of the emission-delay histogram
# equals its _count, and the per-stage histogram exposes the stage
# taxonomy.
inf=$(awk -F' ' '/^spand_stream_emission_delay_seconds_bucket\{le="\+Inf"\}/ {print $2}' "$prom")
cnt=$(awk -F' ' '/^spand_stream_emission_delay_seconds_count/ {print $2}' "$prom")
[ -n "$inf" ] && [ "$inf" = "$cnt" ] || die "emission-delay +Inf bucket $inf != count $cnt"
[ "$cnt" = "$stream_lines" ] || die "emission-delay count=$cnt, want $stream_lines (one per streamed mapping)"

for stage in enumerate co-reach-sweep batch; do
  grep -q "spand_extract_duration_seconds_bucket{stage=\"$stage\"" "$prom" \
    || die "per-stage histogram missing stage=$stage"
done

expiries=$(awk '/^spand_deadline_expiries_total/ {print $2}' "$prom")
[ "$expiries" = "2" ] || die "spand_deadline_expiries_total=$expiries, want 2"

# The algebra planner contract: the composition histogram saw the
# difference operator, and the per-rule rewrite counters expose every
# rule label from startup with the pushdown query ticking its rule.
grep -q 'spand_algebra_op_duration_seconds_bucket{op="difference"' "$prom" \
  || die "composition histogram has no op=\"difference\" series"
for rule in project-identity project-collapse project-past-union \
            project-past-join dedup-union join-reorder; do
  grep -q "spand_algebra_planner_rewrites_total{rule=\"$rule\"}" "$prom" \
    || die "planner rewrite counter missing rule=$rule"
done
fired=$(awk '/^spand_algebra_planner_rewrites_total\{rule="project-past-join"\}/ {print $2}' "$prom")
[ "$fired" -ge 1 ] || die "project-past-join fired $fired times, want >= 1"

# The document-store and incremental-extraction families must carry
# the lifecycle driven above: one put, one splice, and the three
# serving paths (rebuild on first extract, hit on the repeat, replay
# after the splice).
for want in 'spand_docstore_documents 1' \
            'spand_docstore_events_total{event="put"} 1' \
            'spand_docstore_events_total{event="splice"} 1' \
            'spand_incremental_extractions_total{path="rebuild"} 1' \
            'spand_incremental_extractions_total{path="hit"} 1' \
            'spand_incremental_extractions_total{path="replay"} 1'; do
  grep -qF "$want" "$prom" || die "document metrics: missing series \"$want\""
done

# /v1/healthz mirrors the same counters as JSON.
curl -sf "$base/v1/healthz" | jq -e \
  '.documents.store.documents == 1 and .documents.incremental_replays == 1' >/dev/null \
  || die "healthz documents summary does not match the driven lifecycle"

echo "== one metrics surface"
[[ $(head -1 "$prom") == '# HELP '* ]] || die "bare /v1/metrics does not start with # HELP"
# The format query of the old negotiation is ignored. Capture to a
# file before head: piping curl straight into head -1 dies of SIGPIPE
# (exit 23) under pipefail once the exposition outgrows the pipe
# buffer.
for q in '?format=prom' '?format=json'; do
  curl -sf -H 'Accept: application/json' "$base/v1/metrics$q" > "$workdir/q.prom" \
    || die "/v1/metrics$q scrape failed"
  first=$(head -1 "$workdir/q.prom")
  case "$first" in
    '# HELP'*) ;;
    *) die "/v1/metrics$q did not serve the exposition (got: $first)" ;;
  esac
done
curl -sf "$base/v1/healthz" | jq -e \
  '.spanner_cache.misses >= 1 and .rule_cache != null and .in_flight == 0 and .mappings_emitted >= 1' >/dev/null \
  || die "/v1/healthz lacks the service counters"
for path in /metrics /healthz; do
  code=$(curl -s -o /dev/null -w '%{http_code}' "$base$path")
  [ "$code" = "404" ] || die "unprefixed $path answered $code, want 404"
done

echo "== request-ID plumbing and retained traces"
trace=$(curl -sf "$base/v1/debug/trace/check-metrics-1") || die "trace for check-metrics-1 not retained"
tid=$(echo "$trace" | jq -r '.id')
spans=$(echo "$trace" | jq -r '.spans | length')
[ "$tid" = "check-metrics-1" ] || die "trace id=$tid"
[ "$spans" -ge 2 ] || die "trace has $spans spans, want >= 2 (compile + batch)"
retained=$(curl -sf "$base/v1/debug/trace" | jq -r 'length')
[ "$retained" -ge 3 ] || die "only $retained retained traces, want >= 3"

echo "== spangate cluster families"
gate_port=$((port + 1))
gate_base="http://127.0.0.1:$gate_port"
go build -o "$workdir/spangate" ./cmd/spangate
"$workdir/spangate" -addr "127.0.0.1:$gate_port" -shards "$base" -probe-interval 100ms &
gate_pid=$!
for _ in $(seq 1 100); do
  if curl -sf "$gate_base/v1/healthz" >/dev/null 2>&1; then break; fi
  sleep 0.1
done

gb=$(curl -sf "$gate_base/v1/extract" \
  -d '{"expr": ".*(Seller: x{[^,\\n]*},[^\\n]*\\n).*", "docs": ["Seller: Anna, 12 Hill St\nSeller: Bob, 1 Main Rd\n"]}') \
  || die "batch via spangate failed"
n=$(echo "$gb" | jq -r '.results[0] | length')
[ "$n" = "2" ] || die "gate batch extracted $n mappings, want 2"
gate_lines=$(curl -sf "$gate_base/v1/extract/stream" \
  -d '{"expr": "x{a*}b", "doc": "aaab"}' | wc -l)
[ "$gate_lines" -ge 1 ] || die "gate stream produced no mappings"

gprom="$workdir/gate.prom"
curl -sf "$gate_base/v1/metrics" > "$gprom" || die "gate prom scrape failed"
[[ $(head -1 "$gprom") == '# HELP '* ]] || die "bare gate /v1/metrics does not start with # HELP"
gctype=$(curl -sf -o /dev/null -w '%{content_type}' "$gate_base/v1/metrics")
case "$gctype" in
  text/plain*version=0.0.4*) ;;
  *) die "gate Content-Type $gctype is not the 0.0.4 text exposition" ;;
esac
for fam in spand_gate_shard_requests_total spand_gate_fanout_duration_seconds \
           spand_gate_stream_ttfb_seconds spand_gate_coalesced_total \
           spand_gate_shed_total spand_gate_retries_total \
           spand_gate_streamed_lines_total spand_gate_circuit_opens_total \
           spand_gate_in_flight spand_gate_healthy_shards; do
  grep -q "^# HELP $fam " "$gprom" || die "gate family $fam has no # HELP line"
  grep -q "^# TYPE $fam " "$gprom" || die "gate family $fam has no # TYPE line"
done
gok=$(awk -F' ' '/^spand_gate_shard_requests_total\{.*outcome="ok"/ {s += $2} END {print s+0}' "$gprom")
[ "$gok" -ge 2 ] || die "spand_gate_shard_requests_total ok=$gok, want >= 2 (batch + stream)"
glines=$(awk '/^spand_gate_streamed_lines_total / {print $2}' "$gprom")
[ "$glines" = "$gate_lines" ] || die "spand_gate_streamed_lines_total=$glines, want $gate_lines"
ghealthy=$(awk '/^spand_gate_healthy_shards / {print $2}' "$gprom")
[ "$ghealthy" = "1" ] || die "spand_gate_healthy_shards=$ghealthy, want 1"
# The gate histogram buckets obey the same exposition invariants.
ginf=$(awk -F' ' '/^spand_gate_fanout_duration_seconds_bucket\{le="\+Inf"\}/ {print $2}' "$gprom")
gcnt=$(awk -F' ' '/^spand_gate_fanout_duration_seconds_count/ {print $2}' "$gprom")
[ -n "$ginf" ] && [ "$ginf" = "$gcnt" ] || die "gate fanout +Inf bucket $ginf != count $gcnt"

echo "== every scraped family is documented, every documented family scraped"
typed="$workdir/typed.txt"
awk '/^# TYPE / {print $3}' "$prom" "$gprom" | sort -u > "$typed"
for fam in $(cat "$typed"); do
  grep -qF "\`$fam\`" docs/OBSERVABILITY.md \
    || die "family $fam is exposed but has no row in docs/OBSERVABILITY.md"
done
for fam in $(grep -o '^| `spand_[a-z0-9_]*`' docs/OBSERVABILITY.md | tr -d '|` '); do
  grep -qxF "$fam" "$typed" \
    || die "family $fam has a row in docs/OBSERVABILITY.md but no # TYPE line in either scrape"
done

echo "check_metrics: PASS (exposition well-formed, per-stage + emission-delay histograms live, deadline 503 counted, traces retrievable by request ID, spand_gate_* families live, every family documented and every documented family exposed)"
