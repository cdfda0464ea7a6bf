#!/usr/bin/env bash
# Run the MSM micro + ablation benches and write BENCH_msm.json at
# the repo root.
#
# The acceptance rows are the BM_EngineMsm* configurations of
# bench/bench_micro_msm.cc (host wall-clock, BN254, 8 simulated
# GPUs): legacy, +GLV, +batched-affine, both flags (s = 13, signed
# digits), plus the fixed-base precompute rows (s = 16, combined
# bucket pass) measured warm (BaseTableCache hit) and cold (table
# rebuilt every iteration). The JSON reports each row, the
# both-flags-vs-legacy speedup, the precompute-vs-both-flags speedup,
# and the cold-vs-warm ablation; the script FAILS if the warm
# precompute row is not faster than the cold one, or if enabling the
# fault layer's transfer checksums moves the simulated end-to-end
# total at the trace geometry by 3% or more (the verify work must
# stay hidden under the GPU stage), or if attaching the straggler
# watchdog + health tracker moves a fault-free run by 1% or more. The simulated one-knob ablation
# table (bench/bench_ablation_msm.cc) rides along verbatim for
# context, and a planner_ablation table (heuristic vs cost-model
# search, gated: search never loses) is appended from msm_cli
# --planner runs.
#
# Timing rows are only meaningful from an optimized build: the script
# refuses to write BENCH_msm.json when the build tree or the bench
# binary's reported library_build_type is not Release, unless --smoke
# or DISTMSM_ALLOW_DEBUG_BENCH=1 downgrades the refusal — in which
# case it warns loudly, forces the JSON to mode "smoke" and tags it
# ("non_release_build" / "benchmark_library_build_type") so tainted
# rows are never mistaken for full-mode numbers.
#
# Usage: tools/run_benches.sh [--smoke] [build-dir]
#   --smoke    CI mode: only the 2^14 rows, shorter min_time, and no
#              speedup-threshold expectations (the warm-vs-cold gate
#              still applies).
#   build-dir  Release build tree (default: build-rel; configured and
#              built on demand).

set -euo pipefail

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
smoke=0
build_dir=""
for arg in "$@"; do
    case "$arg" in
    --smoke) smoke=1 ;;
    *) build_dir="$arg" ;;
    esac
done
build_dir="${build_dir:-${repo_root}/build-rel}"

if [ ! -f "${build_dir}/CMakeCache.txt" ]; then
    # Build google-benchmark from source (forced Release, see the
    # root CMakeLists) whenever a checkout is available: distro
    # packages are routinely debug builds, which taints the timing
    # rows (benchmark_library_mismatch below). Point
    # DISTMSM_BENCHMARK_SRC at a checkout, or drop one at
    # third_party/benchmark.
    bench_src="${DISTMSM_BENCHMARK_SRC:-${repo_root}/third_party/benchmark}"
    bench_src_flag=()
    if [ -f "${bench_src}/CMakeLists.txt" ]; then
        bench_src_flag=("-DDISTMSM_BENCHMARK_SOURCE_DIR=${bench_src}")
    fi
    cmake -B "${build_dir}" -S "${repo_root}" \
        -DCMAKE_BUILD_TYPE=Release "${bench_src_flag[@]}"
fi
# Refuse non-Release trees early (before the long build): timing
# rows from an unoptimized library are meaningless. The python
# stage below re-checks and also inspects the binary's own
# context.library_build_type.
build_type="$(grep -E '^CMAKE_BUILD_TYPE:' \
    "${build_dir}/CMakeCache.txt" | cut -d= -f2 || true)"
if [ "${build_type}" != "Release" ] &&
    [ "${DISTMSM_ALLOW_DEBUG_BENCH:-0}" != "1" ]; then
    echo "error: ${build_dir} is configured as" \
        "'${build_type:-<unset>}', not Release." >&2
    echo "Benchmark numbers from unoptimized builds are" \
        "meaningless. Use a Release tree, or set" \
        "DISTMSM_ALLOW_DEBUG_BENCH=1 to tag and proceed." >&2
    exit 1
fi
cmake --build "${build_dir}" -j "$(nproc)" \
    --target bench_micro_msm bench_ablation_msm

micro_json="${build_dir}/bench_micro_msm.json"
ablation_txt="${build_dir}/bench_ablation_msm.txt"

if [ "${smoke}" -eq 1 ]; then
    filter='BM_EngineMsm[A-Za-z]*/16384$'
    min_time=0.05
    repetitions=2
else
    filter='BM_EngineMsm'
    min_time=0.2
    repetitions=3
fi

# Multi-iteration timing: every row runs ${repetitions} full
# repetitions and the JSON keeps only the aggregates; the reported
# primary metric is the *median cpu time* (wall-clock real_time rides
# along for context but is load-sensitive on shared runners).
"${build_dir}/bench/bench_micro_msm" \
    --benchmark_filter="${filter}" \
    --benchmark_min_time="${min_time}" \
    --benchmark_repetitions="${repetitions}" \
    --benchmark_report_aggregates_only=true \
    --benchmark_format=json \
    --benchmark_out="${micro_json}" \
    --benchmark_out_format=json \
    --benchmark_counters_tabular=true

"${build_dir}/bench/bench_ablation_msm" | tee "${ablation_txt}"

# Per-phase breakdown: trace one simulated MSM at the acceptance
# geometry (BN254, signed, s = 13, 8 GPUs) at the largest bench size,
# plus one precompute-path MSM (s = 16, combined pass) so the
# table-build lane shows up; validate the export contract and attach
# the phase tables to the BENCH JSON.  See tools/trace_summary.py.
if [ "${smoke}" -eq 1 ]; then log_n=14; else log_n=18; fi
cmake --build "${build_dir}" -j "$(nproc)" --target msm_cli
trace_json="${build_dir}/trace_msm.json"
DISTMSM_TRACE="${trace_json}" "${build_dir}/examples/msm_cli" \
    bn254 "${log_n}" 8 --signed --window=13 > /dev/null
"${repo_root}/tools/trace_summary.py" "${trace_json}" --check --json \
    > "${build_dir}/trace_summary.json"
trace_pre_json="${build_dir}/trace_msm_precompute.json"
DISTMSM_TRACE="${trace_pre_json}" "${build_dir}/examples/msm_cli" \
    bn254 "${log_n}" 8 --glv --batch-affine --precompute \
    --naive-scatter --window=16 > /dev/null
"${repo_root}/tools/trace_summary.py" "${trace_pre_json}" --check \
    --json > "${build_dir}/trace_summary_precompute.json"
# Checksum-overhead gate: the same geometry with transfer checksums
# disabled. The default trace above has them on; enabling them must
# move the simulated end-to-end total by < 3% (the verify work
# overlaps the GPU stage — see MsmTimeline::verifyNs).
trace_nock_json="${build_dir}/trace_msm_nochecksum.json"
DISTMSM_TRACE="${trace_nock_json}" "${build_dir}/examples/msm_cli" \
    bn254 "${log_n}" 8 --signed --window=13 --no-checksums \
    > /dev/null
"${repo_root}/tools/trace_summary.py" "${trace_nock_json}" --check \
    --json > "${build_dir}/trace_summary_nochecksum.json"
# Watchdog + health overhead gate: the same fault-free geometry with
# the straggler watchdog and the health tracker attached vs both
# off. A fault-free run detects no stragglers, so the layer's cost
# is pure bookkeeping (one cost-model estimate + clean-window
# accounting) — it must move the simulated total by < 1%.
trace_wd_on_json="${build_dir}/trace_msm_watchdog_on.json"
DISTMSM_TRACE="${trace_wd_on_json}" "${build_dir}/examples/msm_cli" \
    bn254 "${log_n}" 8 --signed --window=13 --health > /dev/null
"${repo_root}/tools/trace_summary.py" "${trace_wd_on_json}" --check \
    --json > "${build_dir}/trace_summary_watchdog_on.json"
trace_wd_off_json="${build_dir}/trace_msm_watchdog_off.json"
DISTMSM_TRACE="${trace_wd_off_json}" "${build_dir}/examples/msm_cli" \
    bn254 "${log_n}" 8 --signed --window=13 --no-watchdog \
    > /dev/null
"${repo_root}/tools/trace_summary.py" "${trace_wd_off_json}" --check \
    --json > "${build_dir}/trace_summary_watchdog_off.json"

# Multi-GPU scaling rows (analytic, instant): the bucket/window merge
# on hierarchical 8-GPU-per-node topologies from 8 to 256 simulated
# devices, priced with the all-to-host gather baseline, the forced
# tree and reduce-scatter schedules, and the tuner-picked collective.
# The python stage gates tuned < gather AND reduce-scatter <= tree at
# 256 devices (the congestion-priced hierarchical RS+AG merge must
# beat the serialized tree at scale).
scale_devices="8 32 64 128 256"
for d in ${scale_devices}; do
    for c in gather tree reduce-scatter auto; do
        DISTMSM_TRACE="${build_dir}/scale_${d}_${c}.json" \
            "${build_dir}/examples/msm_cli" bn254 24 \
            --topology="nodes=$((d / 8)),gpus=8" \
            --collective="${c}" > /dev/null
    done
done

# Tensor-core vs CUDA-core field-backend ablation (analytic,
# instant): the same BN254 geometry at 2^14..2^22 priced with each
# forced backend plus the planner's Auto pick, and one MNT4753 point
# where the cost model says the tensor path loses (the 12-limb digit
# matrices drown in compaction zero-lanes). The python stage gates
# modeled TC < CUDA-core on BN254 at every size, Auto agreeing with
# the winner on both curves.
tc_sizes="14 16 18 20 22"
for ln in ${tc_sizes}; do
    for fb in cuda-core tensor-core auto; do
        DISTMSM_TRACE="${build_dir}/tc_${ln}_${fb}.json" \
            "${build_dir}/examples/msm_cli" bn254 "${ln}" 8 \
            --field-backend="${fb}" > /dev/null
    done
done
for fb in cuda-core tensor-core auto; do
    DISTMSM_TRACE="${build_dir}/tc_mnt_20_${fb}.json" \
        "${build_dir}/examples/msm_cli" mnt4753 20 8 \
        --field-backend="${fb}" > /dev/null
done

# Autoscheduler ablation (analytic, instant): the acceptance
# geometry planned two ways — the hand-tuned heuristics and the
# cost-model search. The python stage gates: search never loses to
# the heuristic.
for p in heuristic search; do
    DISTMSM_TRACE="${build_dir}/planner_${p}.json" \
        "${build_dir}/examples/msm_cli" bn254 20 8 \
        --planner="${p}" > /dev/null
done

SMOKE="${smoke}" MICRO_JSON="${micro_json}" \
    ABLATION_TXT="${ablation_txt}" OUT="${repo_root}/BENCH_msm.json" \
    TRACE_SUMMARY="${build_dir}/trace_summary.json" \
    TRACE_SUMMARY_PRE="${build_dir}/trace_summary_precompute.json" \
    TRACE_SUMMARY_NOCK="${build_dir}/trace_summary_nochecksum.json" \
    TRACE_SUMMARY_WD_ON="${build_dir}/trace_summary_watchdog_on.json" \
    TRACE_SUMMARY_WD_OFF="${build_dir}/trace_summary_watchdog_off.json" \
    TRACE_LOG_N="${log_n}" \
    BUILD_TYPE="${build_type}" \
    BUILD_DIR="${build_dir}" \
    SCALE_DEVICES="${scale_devices}" \
    TC_SIZES="${tc_sizes}" \
    REPETITIONS="${repetitions}" \
    ALLOW_DEBUG="${DISTMSM_ALLOW_DEBUG_BENCH:-0}" \
    python3 - <<'PY'
import json
import os
import sys

with open(os.environ["MICRO_JSON"]) as f:
    micro = json.load(f)
with open(os.environ["ABLATION_TXT"]) as f:
    ablation = [line.rstrip("\n") for line in f]
with open(os.environ["TRACE_SUMMARY"]) as f:
    trace_summary = json.load(f)
with open(os.environ["TRACE_SUMMARY_PRE"]) as f:
    trace_summary_pre = json.load(f)
with open(os.environ["TRACE_SUMMARY_NOCK"]) as f:
    trace_summary_nock = json.load(f)
with open(os.environ["TRACE_SUMMARY_WD_ON"]) as f:
    trace_summary_wd_on = json.load(f)
with open(os.environ["TRACE_SUMMARY_WD_OFF"]) as f:
    trace_summary_wd_off = json.load(f)

# Release guard. The build tree's CMAKE_BUILD_TYPE governs how the
# distmsm library under test was compiled — refuse anything but
# Release (DISTMSM_ALLOW_DEBUG_BENCH=1 downgrades the refusal to a
# loud warning plus a "non_release_build": true tag on the JSON).
# context.library_build_type reports the *google-benchmark library*
# build; a debug harness only adds per-iteration bookkeeping to
# millisecond-scale rows, so it warns and tags without failing.
build_type = os.environ.get("BUILD_TYPE", "")
non_release = build_type != "Release"
if non_release:
    msg = (f"benchmark tree configured '{build_type or 'unknown'}', "
           "not Release")
    if os.environ["ALLOW_DEBUG"] == "1":
        print(f"WARNING: {msg}; rows tagged non_release_build "
              "(DISTMSM_ALLOW_DEBUG_BENCH=1)", file=sys.stderr)
    else:
        print(f"error: {msg}. Rebuild with -DCMAKE_BUILD_TYPE="
              "Release, or set DISTMSM_ALLOW_DEBUG_BENCH=1 to tag "
              "and proceed.", file=sys.stderr)
        sys.exit(1)
# The benchmark binary reports the *google-benchmark library* build
# in context.library_build_type. A debug harness inflates every
# per-iteration bookkeeping cost, so a mismatch with the Release tree
# taints the timing rows: a HARD failure in full mode, no escape
# hatch — full-mode numbers from a debug harness must never be
# committed. Only --smoke (CI functional runs) downgrades it, and
# then the JSON is forced to mode "smoke" and tagged so no reader
# mistakes the rows for trustworthy full-mode numbers. Fix it for
# real by building the library from source in Release:
# DISTMSM_BENCHMARK_SRC=/path/to/benchmark tools/run_benches.sh.
lib_type = micro.get("context", {}).get("library_build_type", "")
lib_mismatch = (not non_release) and lib_type.lower() != "release"
if lib_mismatch:
    msg = (f"google-benchmark library was built "
           f"'{lib_type or 'unknown'}' against a "
           f"'{build_type}' tree — harness overhead taints the "
           "timing rows")
    if os.environ["SMOKE"] == "1":
        print(f"WARNING: {msg}; JSON forced to mode 'smoke' and "
              "tagged benchmark_library_build_type.", file=sys.stderr)
    else:
        print(f"error: {msg}. Build the library in Release (set "
              "DISTMSM_BENCHMARK_SRC to a google-benchmark checkout "
              "and reconfigure) or run with --smoke.",
              file=sys.stderr)
        sys.exit(1)

CONFIGS = {
    "BM_EngineMsmLegacy": ("legacy", {"glv": False, "batchAffine": False}),
    "BM_EngineMsmGlv": ("glv", {"glv": True, "batchAffine": False}),
    "BM_EngineMsmBatchAffine": (
        "batch_affine", {"glv": False, "batchAffine": True}),
    "BM_EngineMsmGlvBatchAffine": (
        "glv_batch_affine", {"glv": True, "batchAffine": True}),
    "BM_EngineMsmPrecomputeWarm": (
        "precompute_warm",
        {"glv": True, "batchAffine": True, "precompute": True,
         "cache": "warm"}),
    "BM_EngineMsmPrecomputeCold": (
        "precompute_cold",
        {"glv": True, "batchAffine": True, "precompute": True,
         "cache": "cold"}),
}

# Rows come from repetition aggregates
# (--benchmark_report_aggregates_only): the primary metric is the
# median *cpu* time across repetitions — robust to a co-tenant
# stealing the core mid-run — with the median wall-clock and the cpu
# stddev attached so outliers are visible in the JSON.
agg = {}
for b in micro.get("benchmarks", []):
    if b.get("run_type") != "aggregate":
        continue
    name, _, stat = b["name"].rpartition("_")
    base, _, n = name.partition("/")
    if base not in CONFIGS:
        continue
    agg.setdefault((base, int(n)), {})[stat] = b

rows = []
for (base, n), stats in sorted(agg.items()):
    median = stats.get("median")
    if median is None:
        print(f"error: no median aggregate for {base}/{n}; was the "
              "bench run without --benchmark_repetitions?",
              file=sys.stderr)
        sys.exit(1)
    label, flags = CONFIGS[base]
    rows.append({
        "config": label,
        "options": flags,
        "n": n,
        "cpu_ms": median["cpu_time"],
        "real_ms": median["real_time"],
        "cpu_stddev_ms": stats.get("stddev", {}).get("cpu_time"),
        "repetitions": int(os.environ["REPETITIONS"]),
    })

def ms_at(label, n):
    for r in rows:
        if r["config"] == label and r["n"] == n:
            return r["cpu_ms"]
    return None

sizes = sorted({r["n"] for r in rows})
speedups = {}
speedups_pre = {}
for n in sizes:
    legacy, both = ms_at("legacy", n), ms_at("glv_batch_affine", n)
    if legacy and both:
        speedups[str(n)] = round(legacy / both, 3)
    warm = ms_at("precompute_warm", n)
    if both and warm:
        speedups_pre[str(n)] = round(both / warm, 3)

# Cold/warm ablation at 2^14: the table-build cost the cache
# amortizes away. The warm row must beat the cold row, always.
ablation_cache = {}
cold, warm = ms_at("precompute_cold", 16384), \
    ms_at("precompute_warm", 16384)
if cold is not None and warm is not None:
    ablation_cache = {
        "n": 16384,
        "cold_ms": cold,
        "warm_ms": warm,
        "speedup_warm_vs_cold": round(cold / warm, 3),
    }
    if warm >= cold:
        print(f"error: warm precompute row ({warm:.3f} ms) is not "
              f"faster than cold ({cold:.3f} ms) at n=16384 — the "
              "base-table cache is not paying off.", file=sys.stderr)
        sys.exit(1)
else:
    print("error: precompute cold/warm rows missing at n=16384.",
          file=sys.stderr)
    sys.exit(1)

# Checksum-overhead gate: transfer-checksum verification (on by
# default) must cost < 3% of the simulated end-to-end total at the
# acceptance geometry. The verify work overlaps the GPU stage, so
# the exposed overhead is the delta of the two totals, not the raw
# verify_ns.
def timeline_total_ms(summary):
    tls = summary.get("timelines", [])
    if not tls:
        print("error: trace summary has no timelines", file=sys.stderr)
        sys.exit(1)
    return tls[0]["total_ms"]

def timeline_phase_ms(summary, phase):
    for row in summary.get("timelines", [{}])[0].get("phases", []):
        if row["phase"] == phase:
            return row["ms"]
    return 0.0

total_on_ms = timeline_total_ms(trace_summary)
total_off_ms = timeline_total_ms(trace_summary_nock)
verify_ms = timeline_phase_ms(trace_summary, "checksum verify")
overhead_ms = total_on_ms - total_off_ms
overhead_pct = 100.0 * overhead_ms / total_off_ms if total_off_ms else 0.0
if verify_ms <= 0.0:
    print("error: checksummed trace reports no verify phase — the "
          "fault layer did not run.", file=sys.stderr)
    sys.exit(1)
if overhead_pct >= 3.0:
    print(f"error: checksum overhead {overhead_ms:.3f} ms "
          f"({overhead_pct:.2f}%) of the {total_off_ms:.3f} ms "
          "baseline exceeds the 3% acceptance gate.", file=sys.stderr)
    sys.exit(1)

# Watchdog + health overhead gate: a fault-free run with the
# straggler watchdog and the health tracker attached must price
# within 1% of the same run with both off. No stragglers means no
# speculation, no backoff and no quarantine — the only cost is the
# deadline estimate and the clean-window bookkeeping, neither of
# which may leak into the simulated timeline.
wd_on_ms = timeline_total_ms(trace_summary_wd_on)
wd_off_ms = timeline_total_ms(trace_summary_wd_off)
wd_overhead_ms = wd_on_ms - wd_off_ms
wd_overhead_pct = 100.0 * wd_overhead_ms / wd_off_ms if wd_off_ms \
    else 0.0
if wd_overhead_pct >= 1.0:
    print(f"error: watchdog+health overhead {wd_overhead_ms:.3f} ms "
          f"({wd_overhead_pct:.2f}%) of the {wd_off_ms:.3f} ms "
          "baseline exceeds the 1% acceptance gate on a fault-free "
          "run.", file=sys.stderr)
    sys.exit(1)

# Multi-GPU collective scaling rows (analytic timelines from
# msm_cli --topology): merge traffic priced with the all-to-host
# gather, the forced tree, the forced reduce-scatter, and the
# tuner's pick. Acceptance gates at 256 devices: the tuned merge
# must be measurably below gather, and the congestion-priced
# reduce-scatter + allgather merge must not price above the tree.
ALGO_NAMES = {0: "gather", 1: "ring", 2: "tree", 3: "reduce-scatter"}
SCALE_PREFIX = {"gather": "gather", "tree": "tree",
                "reduce-scatter": "reduce_scatter", "auto": "tuned"}
scaling = []
for d in os.environ["SCALE_DEVICES"].split():
    row = {"devices": int(d), "nodes": int(d) // 8, "gpus_per_node": 8}
    for mode in ("gather", "tree", "reduce-scatter", "auto"):
        path = os.path.join(os.environ["BUILD_DIR"],
                            f"scale_{d}_{mode}.metrics.json")
        with open(path) as f:
            m = json.load(f)
        prefix = SCALE_PREFIX[mode]
        row[f"{prefix}_merge_ms"] = m["timeline/transfer_ns"] / 1e6
        row[f"{prefix}_total_ms"] = m["timeline/total_ns"] / 1e6
        if mode == "auto":
            row["tuned_collective"] = ALGO_NAMES.get(
                int(m["timeline/collective"]), "?")
            row["predicted_ms"] = {
                "gather": m["timeline/merge_gather_ns"] / 1e6,
                "ring": m["timeline/merge_ring_ns"] / 1e6,
                "tree": m["timeline/merge_tree_ns"] / 1e6,
                "reduce_scatter":
                    m["timeline/merge_reduce_scatter_ns"] / 1e6,
            }
    row["merge_speedup_tuned_vs_gather"] = round(
        row["gather_merge_ms"] / row["tuned_merge_ms"], 3) \
        if row["tuned_merge_ms"] else None
    row["merge_speedup_rs_vs_tree"] = round(
        row["tree_merge_ms"] / row["reduce_scatter_merge_ms"], 3) \
        if row["reduce_scatter_merge_ms"] else None
    scaling.append(row)
head = scaling[-1]
if head["devices"] == 256 and \
        head["tuned_merge_ms"] >= head["gather_merge_ms"]:
    print(f"error: at 256 devices the tuned merge "
          f"({head['tuned_merge_ms']:.3f} ms, "
          f"{head['tuned_collective']}) is not below the gather "
          f"baseline ({head['gather_merge_ms']:.3f} ms).",
          file=sys.stderr)
    sys.exit(1)
if head["devices"] == 256 and \
        head["reduce_scatter_merge_ms"] > head["tree_merge_ms"]:
    print(f"error: at 256 devices the reduce-scatter merge "
          f"({head['reduce_scatter_merge_ms']:.3f} ms) prices above "
          f"the tree ({head['tree_merge_ms']:.3f} ms) — the "
          "hierarchical RS+AG schedule lost its congestion win.",
          file=sys.stderr)
    sys.exit(1)

# Tensor-core field-backend ablation (analytic timelines from
# msm_cli --field-backend): forced CUDA-core vs forced tensor-core
# vs the planner's Auto pick. Gates: on BN254 the modeled TC backend
# must beat CUDA cores at every size and Auto must resolve to TC; on
# MNT4753 the inverse (TC loses to compaction zero-lanes, Auto keeps
# CUDA cores). Auto must also never be slower than both forced rows.
FIELD_BACKENDS = {1: "cuda-core", 2: "tensor-core"}

def tc_metrics(tag, fb):
    path = os.path.join(os.environ["BUILD_DIR"],
                        f"tc_{tag}_{fb}.metrics.json")
    with open(path) as f:
        return json.load(f)

def tc_row(curve, log_n, tag):
    row = {"curve": curve, "log2_n": log_n, "n": 1 << log_n}
    for fb in ("cuda-core", "tensor-core", "auto"):
        m = tc_metrics(tag, fb)
        key = fb.replace("-", "_")
        row[f"{key}_total_ms"] = m["timeline/total_ns"] / 1e6
        row[f"{key}_bucket_sum_ms"] = m["timeline/bucket_sum_ns"] / 1e6
        if fb == "auto":
            row["auto_resolved"] = FIELD_BACKENDS.get(
                int(m["timeline/field_backend"]), "?")
    row["bucket_sum_speedup_tc_vs_cuda"] = round(
        row["cuda_core_bucket_sum_ms"] / row["tensor_core_bucket_sum_ms"],
        3) if row["tensor_core_bucket_sum_ms"] else None
    row["total_speedup_tc_vs_cuda"] = round(
        row["cuda_core_total_ms"] / row["tensor_core_total_ms"], 3) \
        if row["tensor_core_total_ms"] else None
    return row

tc_rows = [tc_row("BN254", int(ln), ln)
           for ln in os.environ["TC_SIZES"].split()]
tc_rows.append(tc_row("MNT4753", 20, "mnt_20"))

for row in tc_rows:
    curve, n = row["curve"], row["n"]
    want = "tensor-core" if curve == "BN254" else "cuda-core"
    if row["auto_resolved"] != want:
        print(f"error: {curve} n={n}: auto resolved to "
              f"'{row['auto_resolved']}', cost model says '{want}'.",
              file=sys.stderr)
        sys.exit(1)
    tc, cc = row["tensor_core_total_ms"], row["cuda_core_total_ms"]
    if curve == "BN254" and tc >= cc:
        print(f"error: BN254 n={n}: modeled tensor-core total "
              f"({tc:.3f} ms) is not below CUDA-core ({cc:.3f} ms).",
              file=sys.stderr)
        sys.exit(1)
    if curve == "MNT4753" and cc >= tc:
        print(f"error: MNT4753 n={n}: CUDA-core total ({cc:.3f} ms) "
              f"should beat the tensor path ({tc:.3f} ms) — the "
              "cost model's compaction penalty vanished.",
              file=sys.stderr)
        sys.exit(1)
    auto_ms = row["auto_total_ms"]
    if auto_ms > min(tc, cc) * (1.0 + 1e-9):
        print(f"error: {curve} n={n}: auto ({auto_ms:.3f} ms) is "
              f"slower than the best forced backend "
              f"({min(tc, cc):.3f} ms).", file=sys.stderr)
        sys.exit(1)

# Autoscheduler ablation (analytic timelines from msm_cli
# --planner): the hand-tuned heuristics vs the cost-model search.
# Gate: the searched plan must never price worse than the heuristic
# one.
def planner_metrics(tag):
    path = os.path.join(os.environ["BUILD_DIR"],
                        f"planner_{tag}.metrics.json")
    with open(path) as f:
        return json.load(f)

PLANNER_TAGS = ("heuristic", "search")
pm = {tag: planner_metrics(tag) for tag in PLANNER_TAGS}
planner_rows = []
for tag in PLANNER_TAGS:
    m = pm[tag]
    planner_rows.append({
        "planner": tag,
        "total_ms": m["timeline/total_ns"] / 1e6,
        "plans_evaluated": int(m.get("autoplan/evaluated", 0)),
        "cost_model_evals": int(m.get("autoplan/cost_model_evals", 0)),
    })

heur_ns = pm["heuristic"]["timeline/total_ns"]
search_ns = pm["search"]["timeline/total_ns"]
if search_ns > heur_ns * (1.0 + 1e-9):
    print(f"error: searched plan ({search_ns / 1e6:.3f} ms) prices "
          f"worse than the heuristic one ({heur_ns / 1e6:.3f} ms) — "
          "the search lost to its own seed.", file=sys.stderr)
    sys.exit(1)

# Machine/load guard: the conditions the timing rows were taken
# under, embedded so a reader (or a CI diff) can spot untrustworthy
# numbers — a debug build, a loaded box — without re-running.
load1 = os.getloadavg()[0]
cpus = os.cpu_count() or 1
guard = {
    "build_type": build_type or "unknown",
    "benchmark_library_build_type": lib_type or "unknown",
    "primary_metric": "cpu_ms (median of repetitions)",
    "repetitions": int(os.environ["REPETITIONS"]),
    "cpu_count": cpus,
    "load_avg_1m": round(load1, 2),
    "high_load": load1 > cpus,
}
if guard["high_load"]:
    print(f"WARNING: 1-minute load {load1:.2f} exceeds the "
          f"{cpus} available CPU(s); wall-clock rows are suspect "
          "(cpu_ms stays the primary metric). Tagged high_load.",
          file=sys.stderr)

doc = {
    "bench": "msm_hot_path",
    "curve": "BN254",
    "geometry": {
        "gpus": 8, "window_bits": 13, "signed_digits": True,
        "precompute_window_bits": 16},
    "mode": "smoke" if (os.environ["SMOKE"] == "1" or lib_mismatch)
            else "full",
    "context": micro.get("context", {}),
    "guard": guard,
    "rows": rows,
    "collective_scaling": {
        "curve": "BN254", "log2_n": 24,
        "gate": "tuned merge < gather merge and reduce-scatter "
                "merge <= tree merge at 256 devices",
        "rows": scaling,
    },
    "tc_ablation": {
        "gate": "modeled tensor-core < cuda-core on BN254 at every "
                "size; auto resolves to the cost-model winner on "
                "both curves and never loses to a forced backend",
        "rows": tc_rows,
    },
    "planner_ablation": {
        "curve": "BN254", "log2_n": 20, "gpus": 8,
        "gate": "search <= heuristic",
        "search_speedup_vs_heuristic": round(heur_ns / search_ns, 3)
            if search_ns else None,
        "rows": planner_rows,
    },
    "speedup_glv_batch_vs_legacy": speedups,
    "speedup_precompute_warm_vs_glv_batch": speedups_pre,
    "precompute_cache_ablation": ablation_cache,
    "ablation_simulated": ablation,
    "phase_breakdown_simulated": {
        "n": 1 << int(os.environ["TRACE_LOG_N"]),
        "timelines": trace_summary["timelines"],
        "timelines_precompute": trace_summary_pre["timelines"],
    },
    "checksum_overhead": {
        "n": 1 << int(os.environ["TRACE_LOG_N"]),
        "verify_ms": verify_ms,
        "total_with_checksums_ms": total_on_ms,
        "total_without_checksums_ms": total_off_ms,
        "overhead_ms": round(overhead_ms, 6),
        "overhead_pct": round(overhead_pct, 4),
        "gate_pct": 3.0,
    },
    "watchdog_overhead": {
        "n": 1 << int(os.environ["TRACE_LOG_N"]),
        "total_with_watchdog_health_ms": wd_on_ms,
        "total_without_ms": wd_off_ms,
        "overhead_ms": round(wd_overhead_ms, 6),
        "overhead_pct": round(wd_overhead_pct, 4),
        "gate_pct": 1.0,
    },
}
if non_release:
    doc["non_release_build"] = True
if lib_type.lower() != "release":
    doc["benchmark_library_build_type"] = lib_type or "unknown"
guard["benchmark_library_mismatch"] = lib_mismatch
with open(os.environ["OUT"], "w") as f:
    json.dump(doc, f, indent=2)
    f.write("\n")
print(f"wrote {os.environ['OUT']}")
for n, s in speedups.items():
    print(f"  n={n}: glv+batch vs legacy = {s}x")
for n, s in speedups_pre.items():
    print(f"  n={n}: precompute (warm) vs glv+batch = {s}x")
print(f"  n=16384: warm vs cold = "
      f"{ablation_cache['speedup_warm_vs_cold']}x")
print(f"  checksum overhead at n=2^{os.environ['TRACE_LOG_N']}: "
      f"{overhead_pct:.2f}% (gate 3%)")
print(f"  watchdog+health overhead at n=2^{os.environ['TRACE_LOG_N']}"
      f": {wd_overhead_pct:.2f}% (gate 1%)")
for row in scaling:
    print(f"  {row['devices']} devices: merge gather "
          f"{row['gather_merge_ms']:.3f} ms vs tuned "
          f"({row['tuned_collective']}) {row['tuned_merge_ms']:.3f} "
          f"ms = {row['merge_speedup_tuned_vs_gather']}x; "
          f"rs vs tree = {row['merge_speedup_rs_vs_tree']}x")
for row in tc_rows:
    print(f"  {row['curve']} n=2^{row['log2_n']}: bucket sum "
          f"tc vs cuda = {row['bucket_sum_speedup_tc_vs_cuda']}x, "
          f"total = {row['total_speedup_tc_vs_cuda']}x, auto -> "
          f"{row['auto_resolved']}")
print(f"  planner at n=2^20: heuristic {heur_ns / 1e6:.3f} ms vs "
      f"search {search_ns / 1e6:.3f} ms = "
      f"{round(heur_ns / search_ns, 3)}x")
PY
