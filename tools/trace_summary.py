#!/usr/bin/env python3
"""Summarize / validate a DistMSM Chrome trace + metrics pair.

The simulator writes two files per run (see src/support/trace.h):

  <name>.json          Chrome trace-event JSON (load in Perfetto or
                       chrome://tracing)
  <name>.metrics.json  flat {"key": number} metrics registry

This tool renders a Figure-10-style per-phase latency breakdown of
every recorded MSM timeline from the metrics file, and optionally
validates the trace against the export contract.

Usage:
  tools/trace_summary.py TRACE.json            # breakdown table
  tools/trace_summary.py TRACE.json --check    # validate, exit != 0
                                               # on any violation
  tools/trace_summary.py TRACE.json --json     # machine-readable

The metrics file is located automatically next to the trace
(TRACE.metrics.json); pass --metrics to override.

--check enforces:
  * well-formed trace-event JSON: every event has name/ph/ts/pid/tid,
    'X' spans carry a non-negative dur, flow events carry ids and
    every flow 's' has a matching 'f';
  * at least one complete ('X') span;
  * the overlap contract: for each recorded timeline, the latest
    span end across its host + device lanes equals the recorded
    timeline/<label>/total_ns metric (transfers overlap compute;
    an overlapped CPU bucket-reduce or checksum-verify only
    contributes its exposed tail — the accounting model of
    MsmTimeline::totalNs());
  * the fault contract: fault/corrupt_injected must not exceed
    fault/corrupt_detected (an undetected injected corruption means
    the checksum layer silently passed a wrong payload);
  * the watchdog contract: fault/straggler_respawns equals
    fault/speculative_wins + fault/speculative_losses, and
    fault/straggler_wait_ns never exceeds fault/straggler_stall_ns
    (speculation must not lose to doing nothing);
  * the health contract: health/quarantined_devices +
    health/probation_devices never exceeds health/devices.
"""

import argparse
import json
import os
import sys

# Lane map, mirroring src/support/trace.h (tracelane constants).
HOST_PID = 0
DEVICE_PID_BASE = 1
ENGINE_HOST_PID = 99  # timeline lanes are every pid below this
VALID_PHASES = {"X", "i", "s", "f", "M"}

# Timeline phases in pipeline order, as recorded by traceMsmTimeline.
PHASES = [
    ("scatter_ns", "bucket scatter"),
    ("bucket_sum_ns", "bucket sum"),
    ("transfer_ns", "transfer"),
    ("bucket_reduce_ns", "bucket reduce"),
    ("verify_ns", "checksum verify"),
    ("straggler_ns", "straggler wait"),
    ("backoff_ns", "retry backoff"),
    ("window_reduce_ns", "window reduce"),
]


def load_json(path, what):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, json.JSONDecodeError) as exc:
        raise SystemExit(f"error: cannot load {what} {path}: {exc}")


def metrics_path_for(trace_path):
    base = trace_path
    if base.endswith(".json"):
        base = base[: -len(".json")]
    return base + ".metrics.json"


def validate_trace(doc):
    """Return a list of violation strings (empty when valid)."""
    problems = []
    if not isinstance(doc, dict) or "traceEvents" not in doc:
        return ["top level is not an object with a traceEvents list"]
    events = doc["traceEvents"]
    if not isinstance(events, list):
        return ["traceEvents is not a list"]

    spans = 0
    flow_starts, flow_ends = set(), set()
    for i, e in enumerate(events):
        where = f"event[{i}]"
        if not isinstance(e, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = e.get("ph")
        if ph not in VALID_PHASES:
            problems.append(f"{where}: bad ph {ph!r}")
            continue
        for field, kinds in (("name", str), ("ph", str)):
            if not isinstance(e.get(field), kinds):
                problems.append(f"{where}: missing {field}")
        for field in ("pid", "tid"):
            if not isinstance(e.get(field), int):
                problems.append(f"{where}: missing integer {field}")
        if ph != "M" and not isinstance(e.get("ts"), (int, float)):
            problems.append(f"{where}: missing numeric ts")
        if ph == "X":
            spans += 1
            dur = e.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"{where}: span without dur >= 0")
        if ph in ("s", "f"):
            if "id" not in e:
                problems.append(f"{where}: flow without id")
            else:
                (flow_starts if ph == "s" else flow_ends).add(e["id"])

    if spans == 0:
        problems.append("no complete ('X') spans recorded")
    for fid in sorted(flow_starts - flow_ends):
        problems.append(f"flow id {fid}: 's' without matching 'f'")
    for fid in sorted(flow_ends - flow_starts):
        problems.append(f"flow id {fid}: 'f' without matching 's'")
    return problems


def timeline_labels(metrics):
    """Timeline label prefixes recorded in the metrics registry."""
    labels = set()
    for key in metrics:
        if key.startswith("timeline/") and key.endswith("/total_ns"):
            labels.add(key[len("timeline/"): -len("total_ns")])
        elif key == "timeline/total_ns":
            labels.add("")
    return sorted(labels)


def check_overlap_contract(doc, metrics):
    """The latest timeline-lane span end must equal total_ns."""
    problems = []
    for label in timeline_labels(metrics):
        total_us = metrics[f"timeline/{label}total_ns"] / 1000.0
        lane_end = None
        for e in doc.get("traceEvents", []):
            if e.get("ph") != "X" or e.get("pid", 999) >= ENGINE_HOST_PID:
                continue
            name = e.get("name", "")
            if label and not name.startswith(label):
                continue
            end = e["ts"] + e["dur"]
            lane_end = end if lane_end is None else max(lane_end, end)
        if lane_end is None:
            problems.append(
                f"timeline {label or '<default>'}: metrics recorded "
                "but no spans on host/device lanes")
            continue
        tolerance = max(1e-6, 1e-9 * abs(total_us))
        if abs(lane_end - total_us) > tolerance:
            problems.append(
                f"timeline {label or '<default>'}: spans end at "
                f"{lane_end:.3f} us but total_ns says "
                f"{total_us:.3f} us (overlap accounting broken)")
    return problems


def breakdown(metrics):
    """Per-timeline Figure-10-style phase rows."""
    out = []
    for label in timeline_labels(metrics):
        prefix = f"timeline/{label}"
        total = metrics.get(prefix + "total_ns", 0.0)
        cpu_reduce = metrics.get(prefix + "cpu_reduce", 0.0) != 0.0
        rows = []
        for key, name in PHASES:
            ns = metrics.get(prefix + key, 0.0)
            if key == "bucket_reduce_ns":
                name += " (CPU)" if cpu_reduce else " (GPU)"
            rows.append({
                "phase": name,
                "ms": ns / 1e6,
                "pct_of_total": 100.0 * ns / total if total else 0.0,
            })
        out.append({
            "timeline": label.rstrip("/") or "<default>",
            "num_gpus": int(metrics.get(prefix + "num_gpus", 0)),
            "total_ms": total / 1e6,
            "phases": rows,
        })
    return out


def other_sections(metrics):
    """Non-timeline metric groups worth echoing (prover, pipeline,
    fault-injection and device-health counters)."""
    groups = {}
    for key, value in metrics.items():
        top = key.split("/", 1)[0]
        if top in ("prover", "pipeline", "fault", "health"):
            groups.setdefault(top, {})[key] = value
    return groups


def check_fault_contract(metrics):
    """Every injected corruption must have been detected, and the
    watchdog / health books must balance.

    The engine only emits fault/* counters when the fault layer ran;
    an injected-but-undetected corruption means the checksum layer
    silently passed a wrong payload — exactly the failure --check
    exists to catch. The watchdog contract: every speculative
    respawn was either adopted (a win) or outrun by its original (a
    loss), and the priced watchdog wait never exceeds the stall a
    watchdog-less run would have suffered. The health contract:
    quarantined + probation devices never exceed the tracked fleet.
    """
    problems = []
    injected = metrics.get("fault/corrupt_injected", 0)
    detected = metrics.get("fault/corrupt_detected", 0)
    if injected > detected:
        problems.append(
            f"fault contract: {injected:g} corrupted transfer(s) "
            f"injected but only {detected:g} detected "
            "(checksum verification missed a byte flip)")
    respawns = metrics.get("fault/straggler_respawns", 0)
    wins = metrics.get("fault/speculative_wins", 0)
    losses = metrics.get("fault/speculative_losses", 0)
    if respawns != wins + losses:
        problems.append(
            f"fault contract: {respawns:g} straggler respawn(s) but "
            f"{wins:g} win(s) + {losses:g} loss(es) "
            "(a speculative copy was never accounted for)")
    wait = metrics.get("fault/straggler_wait_ns", 0)
    stall = metrics.get("fault/straggler_stall_ns", 0)
    if wait > stall:
        problems.append(
            f"fault contract: watchdog wait {wait:g} ns exceeds the "
            f"counterfactual stall {stall:g} ns "
            "(speculation made the run slower than doing nothing)")
    devices = metrics.get("health/devices", 0)
    unhealthy = (metrics.get("health/quarantined_devices", 0)
                 + metrics.get("health/probation_devices", 0))
    if devices and unhealthy > devices:
        problems.append(
            f"health contract: {unhealthy:g} quarantined+probation "
            f"device(s) out of {devices:g} tracked")
    return problems


def print_tables(summary):
    for t in summary["timelines"]:
        print(f"timeline {t['timeline']} "
              f"({t['num_gpus']} GPUs, total {t['total_ms']:.3f} ms)")
        width = max(len(r["phase"]) for r in t["phases"])
        for r in t["phases"]:
            print(f"  {r['phase']:<{width}}  {r['ms']:>12.3f} ms  "
                  f"{r['pct_of_total']:>6.1f}%")
        print("  note: phases overlap; %s do not sum to 100"
              % ("columns" if len(t["phases"]) else ""))
        print()
    for group, values in sorted(summary["sections"].items()):
        print(f"{group}:")
        for key in sorted(values):
            print(f"  {key}: {values[key]:g}")
        print()


def main():
    parser = argparse.ArgumentParser(
        description="Summarize / validate a DistMSM trace")
    parser.add_argument("trace", help="Chrome trace JSON path")
    parser.add_argument("--metrics", help="metrics JSON path "
                        "(default: <trace>.metrics.json)")
    parser.add_argument("--check", action="store_true",
                        help="validate the export contract; exit 1 "
                        "on any violation")
    parser.add_argument("--json", action="store_true",
                        help="emit the summary as JSON")
    args = parser.parse_args()

    doc = load_json(args.trace, "trace")
    metrics_path = args.metrics or metrics_path_for(args.trace)
    metrics = {}
    if os.path.exists(metrics_path):
        metrics = load_json(metrics_path, "metrics")
        if not isinstance(metrics, dict) or not all(
                isinstance(v, (int, float)) for v in metrics.values()):
            raise SystemExit(
                f"error: {metrics_path} is not a flat "
                "{{string: number}} object")

    problems = []
    if args.check:
        problems = validate_trace(doc)
        problems += check_overlap_contract(doc, metrics)
        problems += check_fault_contract(metrics)

    summary = {
        "trace": args.trace,
        "events": len(doc.get("traceEvents", []))
        if isinstance(doc, dict) else 0,
        "timelines": breakdown(metrics),
        "sections": other_sections(metrics),
        "problems": problems,
    }

    if args.json:
        json.dump(summary, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        print(f"{args.trace}: {summary['events']} events")
        print_tables(summary)
        for p in problems:
            print(f"CHECK FAILED: {p}", file=sys.stderr)
        if args.check and not problems:
            print("check: OK")

    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
