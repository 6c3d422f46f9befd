#!/bin/sh
# Runs one suite of benches and merges their google-benchmark JSON outputs
# into a single report:
#   net   — DPF demux, ASH/UDP roundtrip, packet rings  -> BENCH_net.json
#   fs    — file-cache policy and journaling ablations  -> BENCH_fs.json
#   trace — xtrace observability cost ablation          -> BENCH_trace.json
#   smp   — multi-CPU scaling and shootdown cost        -> BENCH_smp.json
#   pressure — throughput under revocation storms, plus the
#              reclaim cost tables (teardown, revocation) -> BENCH_pressure.json
#   server — end-to-end HTTP/KV serving vs Ultrix       -> BENCH_server.json
#   overload — goodput vs offered load, shed on/off    -> BENCH_overload.json
#   reqtrace — per-request critical-path attribution   -> BENCH_reqtrace.json
#   rack  — multi-machine rack scaling + power-cut failover -> BENCH_rack.json
#   paper — the paper's tables and figures (T2–T6, T8–T10, T12, F2, F3)
#           plus the STLB, DPF, ASH ILP, page-table and yield
#           ablations                                  -> BENCH_paper.json
#
# bench_t01_machine (Table 1, the simulated machine's parameters) is in no
# suite: it is not a google-benchmark binary and writes no JSON.
#
# The trace suite additionally arms the kernel event ring in every bench
# boot (--xok_trace) and writes one TRACE_<bench>.json event summary next
# to the merged report.
#
# Usage: run_benches.sh [suite] [output.json]
#   BENCH_BIN_DIR: directory holding the bench binaries (default: cwd).
# Invoked by the optional `bench_<suite>` CMake targets (`bench_net`,
# `bench_paper`, ...); also runnable by hand from the build tree's bench/
# directory.
set -eu

suite="${1:-net}"
case "$suite" in
  net)
    benches="bench_t07_dpf bench_t11_ash_net bench_abl_pktring"
    default_out="BENCH_net.json"
    with_trace=0
    ;;
  fs)
    benches="bench_abl_file_cache bench_abl_journal"
    default_out="BENCH_fs.json"
    with_trace=0
    ;;
  trace)
    benches="bench_abl_trace"
    default_out="BENCH_trace.json"
    with_trace=1
    ;;
  smp)
    benches="bench_abl_smp"
    default_out="BENCH_smp.json"
    with_trace=0
    ;;
  pressure)
    benches="bench_abl_pressure bench_abl_teardown bench_abl_revocation"
    default_out="BENCH_pressure.json"
    with_trace=0
    ;;
  server)
    benches="bench_e2e_server"
    default_out="BENCH_server.json"
    with_trace=0
    ;;
  overload)
    benches="bench_abl_overload"
    default_out="BENCH_overload.json"
    with_trace=0
    ;;
  reqtrace)
    benches="bench_abl_reqtrace"
    default_out="BENCH_reqtrace.json"
    with_trace=0
    ;;
  rack)
    benches="bench_abl_rack"
    default_out="BENCH_rack.json"
    with_trace=0
    ;;
  paper)
    benches="bench_t02_null_call bench_t03_primops bench_t04_ctx_switch
             bench_t05_exceptions bench_t06_pct bench_t08_ipc bench_t09_vm_matrix
             bench_t10_appel_li bench_t12_tlrpc bench_f02_ash_scaling bench_f03_stride
             bench_abl_stlb bench_abl_dpf bench_abl_ash_ilp bench_abl_page_table
             bench_abl_yield"
    default_out="BENCH_paper.json"
    with_trace=0
    ;;
  *)
    echo "run_benches: unknown suite '$suite' (expected: net, fs, trace, smp, pressure, server, overload, reqtrace, rack, paper)" >&2
    exit 2
    ;;
esac

out="${2:-$default_out}"
out_dir="$(dirname "$out")"
bin_dir="${BENCH_BIN_DIR:-.}"
tmp_dir="$(mktemp -d)"
trap 'rm -rf "$tmp_dir"' EXIT

for bench in $benches; do
  if [ ! -x "$bin_dir/$bench" ]; then
    echo "run_benches: missing $bin_dir/$bench (build the bench targets first)" >&2
    exit 1
  fi
  echo "== $bench =="
  # The paper-style table goes to the console; the machine-readable run
  # goes to JSON. min_time keeps the wall-clock portion short — the
  # simulated-cycle numbers inside are deterministic anyway.
  trace_flag=""
  if [ "$with_trace" = "1" ]; then
    trace_flag="--xok_trace=$out_dir/TRACE_$bench.json"
  fi
  "$bin_dir/$bench" \
    $trace_flag \
    --benchmark_out="$tmp_dir/$bench.json" \
    --benchmark_out_format=json \
    --benchmark_min_time=0.05
done

python3 - "$out" "$tmp_dir" $benches <<'EOF'
import json
import sys

out_path, tmp_dir, names = sys.argv[1], sys.argv[2], sys.argv[3:]
merged = {"context": None, "benchmarks": []}
for name in names:
    with open(f"{tmp_dir}/{name}.json") as f:
        report = json.load(f)
    if merged["context"] is None:
        merged["context"] = report.get("context", {})
    for entry in report.get("benchmarks", []):
        entry["source_binary"] = name
        merged["benchmarks"].append(entry)
with open(out_path, "w") as f:
    json.dump(merged, f, indent=2)
print(f"wrote {out_path}: {len(merged['benchmarks'])} benchmarks from {len(names)} binaries")
EOF
