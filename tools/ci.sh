#!/bin/sh
# CI gate: full build + test suite at both pool widths.  The domain count
# is an env knob (not a tracked dependency), so the second runtest forces
# re-execution to actually exercise the 4-wide pool.
set -eu
cd "$(dirname "$0")/.."

echo "== build =="
dune build

echo "== tests, ACE_DOMAINS=1 =="
ACE_DOMAINS=1 dune runtest --force

echo "== tests, ACE_DOMAINS=4 =="
ACE_DOMAINS=4 dune runtest --force

# Export smoke: generated C is an explicit export, not a side effect of
# compiling. The ace_compile binary must write exactly the golden C and
# weight table for the example model.
echo "== ace_compile export smoke =="
cdir=$(mktemp -d)
dune exec bin/ace_compile.exe -- examples/linear_infer.onnxt \
  -o "$cdir/linear_infer.c" --weights "$cdir/linear_infer_weights.c" >/dev/null
cmp "$cdir/linear_infer.c" examples/generated/linear_infer.c
cmp "$cdir/linear_infer_weights.c" examples/generated/linear_infer_weights.c
rm -rf "$cdir"

# Traced smoke: a small end-to-end encrypted inference with ACE_TRACE set
# must produce a Chrome-loadable trace, at both pool widths.  With 4
# domains the worker spans land on distinct shards, so the checker can
# insist on >= 2 trace tids.
for d in 1 4; do
  echo "== traced smoke, ACE_DOMAINS=$d =="
  trace="/tmp/ace_trace_$d.json"
  rm -f "$trace"
  ACE_DOMAINS=$d ACE_TRACE="$trace" dune exec examples/quickstart.exe >/dev/null
  min_tids=1
  [ "$d" -ge 2 ] && min_tids=2
  dune exec tools/check_trace.exe -- "$trace" --min-tids "$min_tids" --no-drops \
    --require fhe.rotate --require key_switch.basis --require compile.ckks
done

# Lazy-pass smoke matrix: the accumulation-tree model (the degree-2
# workload) at every {ACE_LAZY} x {ACE_DOMAINS} combination with the
# verifier on, each run traced.
for lz in 0 1; do
  for d in 1 4; do
    echo "== lazy smoke, ACE_LAZY=$lz ACE_DOMAINS=$d =="
    trace="/tmp/ace_trace_lazy${lz}_d${d}.json"
    rm -f "$trace"
    ACE_VERIFY=1 ACE_LAZY=$lz ACE_DOMAINS=$d ACE_TRACE="$trace" \
      dune exec examples/accum_infer.exe >/dev/null
    dune exec tools/check_trace.exe -- "$trace" --require fhe.relinearize >/dev/null
  done
done

# The executed relinearize count must strictly drop when the lazy passes
# are on (same model, same pool width) — the compile-time stats say so,
# this proves the runtime actually performed fewer key switches.
n_eager=$(dune exec tools/check_trace.exe -- /tmp/ace_trace_lazy0_d1.json --count-of fhe.relinearize)
n_lazy=$(dune exec tools/check_trace.exe -- /tmp/ace_trace_lazy1_d1.json --count-of fhe.relinearize)
echo "fhe.relinearize spans: eager=$n_eager lazy=$n_lazy"
if [ "$n_lazy" -ge "$n_eager" ]; then
  echo "ci: lazy run did not reduce executed relinearizations" >&2
  exit 1
fi

# Batched smoke matrix: cross-request slot batching under ACE_BATCH x
# ACE_DOMAINS, verifier on, each run traced.  batch_infer compiles
# against a FIXED 16-region context regardless of ACE_BATCH, so the
# traced homomorphic op counts are directly comparable across batch
# factors.
for b in 1 4; do
  for d in 1 4; do
    echo "== batched smoke, ACE_BATCH=$b ACE_DOMAINS=$d =="
    trace="/tmp/ace_trace_batch${b}_d${d}.json"
    rm -f "$trace"
    ACE_VERIFY=1 ACE_BATCH=$b ACE_DOMAINS=$d ACE_TRACE="$trace" \
      dune exec examples/batch_infer.exe >/dev/null
  done
done
echo "== batched smoke, ACE_BATCH=8 ACE_DOMAINS=1 =="
rm -f /tmp/ace_trace_batch8_d1.json
ACE_VERIFY=1 ACE_BATCH=8 ACE_DOMAINS=1 ACE_TRACE=/tmp/ace_trace_batch8_d1.json \
  dune exec examples/batch_infer.exe >/dev/null

# The schedule must be batch-invariant: k requests ride in one ciphertext
# through the SAME homomorphic program, so the executed op counts at
# k=4 and k=8 must equal the k=1 counts exactly (batching changes mask
# contents, never the schedule).
for op in fhe.rotate fhe.relinearize fhe.rescale fhe.bootstrap; do
  n1=$(dune exec tools/check_trace.exe -- /tmp/ace_trace_batch1_d1.json --count-of "$op")
  n4=$(dune exec tools/check_trace.exe -- /tmp/ace_trace_batch4_d1.json --count-of "$op")
  n8=$(dune exec tools/check_trace.exe -- /tmp/ace_trace_batch8_d1.json --count-of "$op")
  echo "$op spans: k=1:$n1 k=4:$n4 k=8:$n8"
  if [ "$n1" -ne "$n4" ] || [ "$n1" -ne "$n8" ]; then
    echo "ci: batched schedule not op-count invariant for $op" >&2
    exit 1
  fi
done

# Serving-telemetry smoke: batched inference with the periodic JSONL
# metrics flusher on.  ace_report merges the flushed windows back together
# and gates on the new serving metrics: per-request amortized latency
# spans at k=4 (one request.latency sample per request riding the
# ciphertext) and non-empty cost-model calibration stats (calib.* filled
# by the VM from Sched.node_cost predictions vs measured wall-clock).
echo "== metrics flush smoke, ACE_BATCH=4 ACE_METRICS_INTERVAL=0.2 =="
mfile="/tmp/ace_metrics_ci.jsonl"
rm -f "$mfile"
ACE_BATCH=4 ACE_METRICS_INTERVAL=0.2 ACE_METRICS_PATH="$mfile" \
  dune exec examples/batch_infer.exe >/dev/null
dune exec tools/ace_report.exe -- "$mfile" \
  --require request.latency --require request.per_ct \
  --require-prefix calib. \
  --min-count request.latency 4 --min-count request.count 4

# Cross-process merge: a second flushed run appends to the same JSONL (a
# new pid); the merged report must cover both runs' requests.
ACE_BATCH=4 ACE_METRICS_INTERVAL=0.2 ACE_METRICS_PATH="$mfile" \
  dune exec examples/batch_infer.exe >/dev/null
dune exec tools/ace_report.exe -- "$mfile" --min-count request.latency 8 >/dev/null

# Pooled smoke matrix: slab recycling (ACE_POOL) across pool widths, plus
# one ACE_POOL_DEBUG run — released-buffer poisoning and double-release
# checks live — so an aliasing bug in the recycler fails CI loudly rather
# than corrupting a later inference.
for p in 0 1; do
  for d in 1 4; do
    echo "== pooled smoke, ACE_POOL=$p ACE_DOMAINS=$d =="
    ACE_VERIFY=1 ACE_POOL=$p ACE_DOMAINS=$d dune exec examples/accum_infer.exe >/dev/null
  done
done
echo "== pool debug smoke, ACE_POOL_DEBUG=1 =="
ACE_VERIFY=1 ACE_POOL=1 ACE_POOL_DEBUG=1 dune exec examples/accum_infer.exe >/dev/null
ACE_VERIFY=1 ACE_POOL=1 ACE_POOL_DEBUG=1 dune exec examples/quickstart.exe >/dev/null

# Steady-state GC accountability: a pooled run with the metrics flusher on
# must report the per-execution gc.* deltas (the zero-allocation serving
# gate reads gc.major_words) and must not drop trace events while doing so.
echo "== pooled metrics smoke, ACE_POOL=1 ACE_METRICS_INTERVAL=0.2 =="
gfile="/tmp/ace_metrics_gc.jsonl"
gtrace="/tmp/ace_trace_gc.json"
rm -f "$gfile" "$gtrace"
ACE_POOL=1 ACE_METRICS_INTERVAL=0.2 ACE_METRICS_PATH="$gfile" ACE_TRACE="$gtrace" \
  dune exec examples/batch_infer.exe >/dev/null
dune exec tools/ace_report.exe -- "$gfile" \
  --require gc.major_words --require gc.minor_words --require gc.major_collections
dune exec tools/check_trace.exe -- "$gtrace" --no-drops >/dev/null

# Complex packing smoke: the opt-in CKKS region pass (ACE_CPLX) packs two
# request streams per slot — composed with the batch axis here (2x2 = 4
# requests per ciphertext), verifier on.
echo "== complex packing smoke, ACE_CPLX=1 ACE_BATCH=2 =="
ACE_VERIFY=1 ACE_CPLX=1 ACE_BATCH=2 dune exec examples/batch_infer.exe >/dev/null

# Verifier smoke: the cross-level IR verifier (default-on, ACE_VERIFY)
# must accept every example model with zero diagnostics — an explicit
# ACE_VERIFY=1 run so a future default change can't silently skip it, and
# an ACE_VERIFY=0 run to keep the disable path working.
echo "== verifier smoke, ACE_VERIFY=1 =="
ACE_VERIFY=1 dune exec examples/quickstart.exe >/dev/null
# The resnet example also gates the numerics of bootstrap placement: its
# max logit deviation must stay within 0.05 (acebench's resnet_max_abs).
# It runs with pool debugging on, the only smoke here that bootstraps:
# every refresh's slabs are poisoned on release and checked on reuse.
rout=$(ACE_VERIFY=1 ACE_POOL=1 ACE_POOL_DEBUG=1 dune exec examples/resnet_infer.exe)
rdev=$(echo "$rout" | sed -n 's/^max logit deviation: //p')
if [ -z "$rdev" ] || ! awk -v d="$rdev" 'BEGIN { exit !(d <= 0.05) }'; then
  echo "resnet_infer: max logit deviation '${rdev}' exceeds 0.05" >&2
  exit 1
fi
ACE_VERIFY=0 dune exec examples/quickstart.exe >/dev/null

# Serving smoke: the ace-serve daemon end to end over a Unix domain
# socket, across a batch x domains matrix.  Each cell starts a daemon
# (metrics flusher + trace on), runs a verifying client (key upload,
# pipelined encrypted requests, decrypted outputs checked against the
# cleartext reference), then SIGTERM-drains it.  The artifact cache is
# shared across cells, so every second same-batch cell is a warm start
# exercising the compile-skip path.  Gates: the merged JSONL must carry
# the per-request serving metrics AND the serve.* family (queue depth,
# admission counters), and every daemon trace must be drop-free.
echo "== serving smoke =="
ssock="/tmp/ace_ci_serve.sock"
scache="/tmp/ace_ci_serve_cache"
smetrics="/tmp/ace_metrics_serve.jsonl"
rm -rf "$ssock" "$scache" "$smetrics" /tmp/ace_trace_serve_*.json
mkdir -p "$scache"
for b in 1 2; do
  for d in 1 2; do
    echo "== serving smoke, batch=$b ACE_DOMAINS=$d =="
    strace="/tmp/ace_trace_serve_b${b}_d${d}.json"
    ACE_DOMAINS=$d ACE_METRICS_INTERVAL=0.2 ACE_METRICS_PATH="$smetrics" \
      ACE_TRACE="$strace" \
      ./_build/default/bin/ace_serve.exe --socket "$ssock" \
        --model demo=gemv:16:4 --cache-dir "$scache" --batch "$b" \
        2>/dev/null &
    spid=$!
    for _ in $(seq 1 100); do [ -S "$ssock" ] && break; sleep 0.2; done
    ./_build/default/bin/ace_client.exe --socket "$ssock" --model demo \
      --requests 3 --verify --spec gemv:16:4 >/dev/null
    kill -TERM "$spid"
    wait "$spid"
    dune exec tools/check_trace.exe -- "$strace" --no-drops >/dev/null
  done
done
dune exec tools/ace_report.exe -- "$smetrics" \
  --require request.latency --require serve.queue_depth --require "serve.*" \
  --min-count serve.admitted 12 --min-count request.latency 12

# Sliced serving: one daemon serving a light model and a multi-slice one
# (gemv:256:256, N = 2^9, whose hoisted rotation batches run for tens of
# milliseconds) to two pipelined clients on two connections at once, with
# pool debugging on (released buffers poisoned, double releases caught).
# Slices end inside key-switch nodes, so executions suspend and resume
# mid-node.  Both clients verify every output against the cleartext
# reference and match replies by request id; the flushed metrics must
# carry the slicing family and at least one mid-node suspension.
echo "== sliced serving, two models, ACE_POOL_DEBUG=1 =="
smetrics2="/tmp/ace_metrics_slices.jsonl"
rm -f "$ssock" "$smetrics2"
ACE_DOMAINS=1 ACE_POOL_DEBUG=1 ACE_METRICS_INTERVAL=0.2 ACE_METRICS_PATH="$smetrics2" \
  ./_build/default/bin/ace_serve.exe --socket "$ssock" \
    --model light=gemv:16:4 --model big=gemv:256:256 2>/dev/null &
spid=$!
for _ in $(seq 1 100); do [ -S "$ssock" ] && break; sleep 0.2; done
./_build/default/bin/ace_client.exe --socket "$ssock" --model big --tenant heavy \
  --requests 3 --verify --spec gemv:256:256 >/dev/null &
cpid=$!
./_build/default/bin/ace_client.exe --socket "$ssock" --model light --tenant light \
  --requests 48 --verify --spec gemv:16:4 >/dev/null
wait "$cpid"
kill -TERM "$spid"
wait "$spid"
dune exec tools/ace_report.exe -- "$smetrics2" \
  --require serve.queue_wait --require serve.exec_wall --require serve.slices \
  --min-count vm.node_suspensions 1

# Differential quick tier: 5 seeded random graphs, encrypted vs cleartext
# at 1 and 4 domains with bit-identity across both.  (The full 25-graph suite runs with ACE_DIFF_FULL=1; CI keeps the
# quick tier mandatory.)
echo "== differential quick tier =="
ACE_VERIFY=1 dune exec test/test_differential.exe

echo "CI OK"
