#!/usr/bin/env python3
"""Build pmbench, run the benchmark's workloads, check them, print metrics.

    python3 benchmark/run.py [--workload NAME] [--seed S] [--seconds X]
                             [--trace [0|1]] [--json OUT] [--repeat N]
                             [--smoke]

Each workload runs in its own pmbench process, so its peak RSS is its own.
Every metric prints as ``workload.name value unit n=<samples>``. The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` (the default) its metrics are the end-to-end metrics of
BENCHMARK.json, with ``--trace 1`` the per-layer ones. With one workload
they are keyed by metric name, with several by ``workload.name``.

``--trace`` adds one untimed rep after the timed ones, which taps the wire
codec and writes spans to <build dir>/trace.jsonl. End-to-end metrics always
come from the untraced reps. See benchmark/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("group16", "shards1k", "shards1k_t2", "churn_wire", "fig_static")
DEFAULT_SEED = 2027
SMOKE_SECONDS = 0.5
PMBENCH_TIMEOUT_S = 150
MEMBERSHIP_KINDS = ("MembershipDigest", "MembershipUpdate", "JoinRequest",
                    "ViewTransfer", "Leave", "SuspectQuery", "SuspectReply")


class BuildError(RuntimeError):
    pass


def build(build_dir: Path) -> Path:
    """Configures and builds pmbench (both no-ops when up to date); returns
    the binary's path."""
    for cmd in (["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir)],
                ["cmake", "--build", str(build_dir), "--target", "pmbench",
                 "-j", "4"]):
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            raise BuildError(f"{' '.join(cmd)} failed:\n{proc.stdout}")
    return build_dir / "pmbench"


def percentile(values, p):
    """Linear-interpolated percentile (p in [0, 100]) of `values`."""
    xs = sorted(values)
    k = (len(xs) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def metric(value, unit, n):
    return {"value": value, "unit": unit, "n": n}


def best_rep_s(raw):
    """The fastest rep's loop time. Every rep replays identical simulated
    work (check() holds the fingerprints equal), so the reps differ only by
    interference from outside the program, which only ever adds time."""
    return min(raw["run_s"])


def step_profile(raw):
    """Each step's (or experiment call's) fastest time across the reps."""
    return [min(samples) for samples in zip(*raw["steps_ms"])]


def end_to_end(raw):
    steps = step_profile(raw)
    counters = raw["counters"]
    if "fig" in raw:
        delivery = metric(raw["fig"]["delivery"], "1", raw["calls_per_rep"])
    else:
        delivery = metric(counters["delivered"] / counters["expected"], "1",
                          counters["expected"])
    return {
        "run_s": metric(best_rep_s(raw), "s", len(raw["run_s"])),
        "step_ms_p50": metric(percentile(steps, 50), "ms", len(steps)),
        "step_ms_p90": metric(percentile(steps, 90), "ms", len(steps)),
        "setup_s": metric(statistics.median(raw["setup_s"]), "s",
                          len(raw["setup_s"])),
        "peak_rss_mb": metric(raw["peak_rss_mb"], "MB", 1),
        "delivery_ratio": delivery,
    }


def per_layer(raw):
    """Layer metrics from the counters and the traced rep."""
    c, net = raw["counters"], raw["counters"]["net"]
    run_s = best_rep_s(raw)
    # A fig_static rep is calls_per_rep experiment runs over the same slots.
    slots = raw["process_slots"] * raw.get("calls_per_rep", 1)
    traced = raw["traced"]
    wire = traced["wire"]
    payloads, nbytes = wire["payloads"], wire["bytes"]
    total_payloads = sum(payloads.values())
    total_bytes = sum(nbytes.values())
    busy_s = wire["encode_s"] + wire["decode_s"]
    out = {}

    def put(name, value, unit, n=1):
        out[name] = metric(value, unit, n)

    construct = raw.get("construct_s", raw["setup_s"])
    put("harness.construct_s", statistics.median(construct), "s",
        len(construct))
    if "play_s" in raw:
        put("harness.play_s", statistics.median(raw["play_s"]), "s",
            len(raw["play_s"]))
    put("harness.rss_setup_mb", raw["rss_setup_mb"], "MB")
    put("harness.expected", c["expected"], "count")
    put("harness.delivered", c["delivered"], "count")
    if "fig" in raw:
        fig = raw["fig"]
        put("harness.fig.msgs_per_proc", fig["msgs_per_proc"], "msgs/proc")
        put("harness.fig.rounds", fig["rounds"], "rounds")
        put("harness.fig.false_reception", fig["false_reception"], "1")
    else:
        put("harness.published", c["published"], "count")
        put("harness.skipped", c["skipped"], "count")
        put("sim.events", c["events"], "count")
        put("sim.events_per_proc", c["events"] / slots, "events/proc")
        put("sim.events_per_s", c["events"] / run_s, "1/s")
    for name, value in net.items():
        put(f"sim.net.{name}", value, "count")
    put("sim.net.sent_per_proc", net["sent"] / slots, "msgs/proc")
    put("sim.net.sent_per_s", net["sent"] / run_s, "1/s")
    for kind, n in payloads.items():
        put(f"sim.net.payloads.{kind}", n, "count")
    put("sim.rss_run_growth_mb", raw["rss_run_growth_mb"], "MB")
    if "fig" not in raw:
        put("membership.tombstones", c["tombstones"], "count")
        put("membership.joins_served", c["joins_served"], "count")
        put("pmcast.dup_suppressed", c["dup_suppressed"], "count")
        put("pmcast.shed_events", c["shed_events"], "count")
        put("pmcast.bound_collapsed", c["bound_collapsed"], "count")
        samples = max(c["latency_samples"], 1)
        put("pmcast.latency_mean_ms", c["latency_total_us"] / samples / 1e3,
            "ms", c["latency_samples"])
        put("pmcast.latency_max_ms", c["latency_max_us"] / 1e3, "ms")
    put("membership.payloads",
        sum(payloads.get(k, 0) for k in MEMBERSHIP_KINDS), "count")
    put("membership.bytes", sum(nbytes.get(k, 0) for k in MEMBERSHIP_KINDS),
        "B")
    for kind, n in nbytes.items():
        put(f"wire.bytes.{kind}", n, "B")
    put("wire.bytes_per_payload",
        total_bytes / total_payloads if total_payloads else 0.0, "B")
    if total_payloads:
        put("wire.encode_s", wire["encode_s"], "s")
        put("wire.decode_s", wire["decode_s"], "s")
        put("wire.ns_per_payload", busy_s * 1e9 / total_payloads, "ns")
    # At T=2 the lanes' codec time overlaps, so this share is CPU time over
    # wall time and may exceed what the codec blocks.
    put("wire.share", 100.0 * busy_s / traced["run_s"], "%")
    put("trace.overhead", traced["run_s"] / run_s - 1.0, "1")
    return out


def check(name, raw, pins, seed, results):
    """Returns the list of failed correctness checks for one workload."""
    failures = []
    c = raw["counters"]
    if not raw["reps_identical"]:
        failures.append("fingerprint or counters differ across reps")
    if c["delivered"] > c["expected"]:
        failures.append("delivered > expected (exactly-once identity)")
    traced = raw.get("traced")
    if traced is not None and not traced["equal"]:
        failures.append("traced rep differs from the untraced reps")
    ref = raw.get("reference")
    if ref is not None and not ref["equal"]:
        failures.append("threaded counters differ from the serial engine")
    if name == "shards1k_t2" and "shards1k" in results:
        if results["shards1k"]["raw"]["counters"] != c:
            failures.append("counters differ from shards1k")
    pin = pins.get(name) if seed == pins["seed"] else None
    if pin is not None:
        if c["fingerprint"] != pin["fingerprint"]:
            failures.append(f"fingerprint {c['fingerprint']} != pin "
                            f"{pin['fingerprint']}")
        if "delivery" in pin and raw["fig"]["delivery"] != pin["delivery"]:
            failures.append(f"delivery {raw['fig']['delivery']!r} != pin "
                            f"{pin['delivery']!r}")
    return failures


def ops(raw):
    """(attempted, failed) operations: scripted publishes (or experiment
    calls) over the timed reps, and those that found no live publisher."""
    reps = len(raw["run_s"])
    if "fig" in raw:
        return raw["calls_per_rep"] * reps, 0
    attempted = raw["scripted_publishes"] * reps
    return attempted, attempted - raw["counters"]["published"] * reps


def run_workload(binary, name, seed, seconds, smoke, trace_path):
    cmd = [str(binary), "--workload", name, "--seed", str(seed),
           "--seconds", repr(seconds)]
    if smoke:
        cmd.append("--smoke")
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=PMBENCH_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"pmbench {name} exited {proc.returncode}: "
                           f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def host_info():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="run only this workload (repeatable; default all)")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float,
                    help="measuring budget per workload run (default: "
                         "BENCHMARK.json run_seconds; --smoke: 0.5)")
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=(0, 1))
    ap.add_argument("--json", type=Path, help="write the results here")
    ap.add_argument("--repeat", type=int, default=1,
                    help="run everything N times, with seeds S..S+N-1")
    ap.add_argument("--smoke", action="store_true",
                    help="shrunken workloads for a quick self-check")
    ap.add_argument("--pins", type=Path, default=BENCH_DIR / "pins.json")
    ap.add_argument("--build-dir", type=Path, default=ROOT / "build-bench")
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or (SMOKE_SECONDS if args.smoke
                               else spec["run_seconds"])
    pins = json.loads(args.pins.read_text())
    pins = {"seed": pins["seed"], **pins["smoke" if args.smoke else "full"]}
    workloads = args.workload or list(WORKLOADS)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    try:
        binary = build(args.build_dir)
    except (BuildError, OSError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    def key(workload, metric_name):
        return (metric_name if len(workloads) == 1
                else f"{workload}.{metric_name}")

    trace_dir = args.build_dir / "traces"
    if args.trace:
        trace_dir.mkdir(parents=True, exist_ok=True)
    runs = []
    attempted = failed = 0
    final = {}
    for r in range(args.repeat):
        seed = args.seed + r
        results = {}
        for name in workloads:
            trace_path = trace_dir / f"{name}.jsonl" if args.trace else None
            t0 = time.monotonic()
            try:
                raw = run_workload(binary, name, seed, seconds, args.smoke,
                                   trace_path)
                failures = check(name, raw, pins, seed, results)
            except (RuntimeError, ValueError, KeyError, IndexError,
                    subprocess.TimeoutExpired) as e:
                raw, failures = None, [str(e)]
            entry = {"raw": raw, "failures": failures,
                     "wall_s": time.monotonic() - t0,
                     "fingerprint": raw and raw["counters"]["fingerprint"]}
            results[name] = entry
            if raw is None:
                n_att, n_fail = 1, 1
            else:
                n_att, n_fail = ops(raw)
                entry["metrics"] = end_to_end(raw)
                if args.trace:
                    entry["layers"] = per_layer(raw)
                    serial = results.get("shards1k", {}).get("metrics")
                    if name == "shards1k_t2" and serial:
                        speedup = (serial["run_s"]["value"] /
                                   entry["metrics"]["run_s"]["value"])
                        entry["layers"]["sim.pool.speedup"] = metric(
                            speedup, "x", 1)
                        entry["layers"]["sim.pool.efficiency"] = metric(
                            speedup / raw["threads"], "1", 1)
            if failures:
                n_fail = n_att
            entry["attempted"], entry["failed"] = n_att, n_fail
            attempted += n_att
            failed += n_fail
            report(name, seed, entry)
            shown = {**entry.get("metrics", {}), **entry.get("layers", {})}
            for m in wanted:
                if m["name"] in shown:
                    final[key(name, m["name"])] = {
                        "value": shown[m["name"]]["value"], "unit": m["unit"]}
        runs.append({"seed": seed, "workloads": {
            name: {k: v for k, v in entry.items() if k != "raw"}
            for name, entry in results.items()}})

    if args.trace:
        with open(args.build_dir / "trace.jsonl", "w", encoding="utf-8") as out:
            for name in workloads:
                path = trace_dir / f"{name}.jsonl"
                if path.exists():
                    out.write(path.read_text())
    if args.json:
        args.json.write_text(json.dumps({
            "schema": "pmbench-results-v1", "host": host_info(),
            "seconds": seconds, "smoke": args.smoke, "trace": bool(args.trace),
            "runs": runs}, indent=1) + "\n")

    correct = all(not w["failures"] for run in runs
                  for w in run["workloads"].values())
    correct = correct and all(key(name, m["name"]) in final
                              for name in workloads for m in wanted)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": final}))
    return 0 if correct else 1


def report(name, seed, entry):
    reps = len(entry["raw"]["run_s"]) if entry["raw"] else 0
    print(f"# {name} seed={seed} reps={reps} ({entry['wall_s']:.1f} s)")
    for failure in entry["failures"]:
        print(f"{name} FAILED: {failure}")
    print(f"{name}.ops_attempted {entry['attempted']} count")
    print(f"{name}.ops_failed {entry['failed']} count")
    for group in ("metrics", "layers"):
        for m, v in entry.get(group, {}).items():
            value = v["value"]
            text = f"{value:.6g}" if isinstance(value, float) else str(value)
            print(f"{name}.{m} {text} {v['unit']} n={v['n']}")
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main())
