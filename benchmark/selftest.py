#!/usr/bin/env python3
"""Self-test of the benchmark, registered as the pmbench_selftest ctest.

    python3 benchmark/selftest.py [--build-dir DIR]

Runs the shrunken (--smoke) workloads and asserts that:
  * every metric BENCHMARK.json names is printed, with its unit, for every
    workload, and the last line is the result object;
  * the traced run writes parent-linked spans;
  * a run at another seed passes without the pins;
  * a tampered pin makes the run fail;
  * compare.py gives the expected verdicts on synthetic results.
"""

import argparse
import json
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(args, expect_ok=True):
    proc = subprocess.run([sys.executable, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=240)
    if expect_ok and proc.returncode != 0:
        raise AssertionError(f"{args} exited {proc.returncode}:\n"
                             f"{proc.stdout}\n{proc.stderr}")
    return proc


def result_line(stdout):
    result = json.loads(stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    return result


def test_smoke_prints_every_metric(runpy, build_dir):
    proc = run([runpy, "--smoke", "--trace", "--build-dir", build_dir])
    lines = proc.stdout.splitlines()
    for workload in WORKLOADS:
        for m in SPEC["end_to_end"] + SPEC["per_layer"]:
            prefix = f"{workload}.{m['name']} "
            hits = [l for l in lines if l.startswith(prefix)]
            assert hits, f"missing {prefix.strip()}"
            _, value, unit, n = hits[0].split()
            float(value)
            assert unit == m["unit"], f"{hits[0]}: unit is not {m['unit']}"
            assert n.startswith("n="), hits[0]
    result = result_line(proc.stdout)
    assert result["correct"] and result["failed"] == 0, result
    assert len(result["metrics"]) == len(WORKLOADS) * len(SPEC["per_layer"])

    spans = [json.loads(l) for l in
             (Path(build_dir) / "trace.jsonl").read_text().splitlines()]
    ids = {(s["trace_id"], s["span_id"]) for s in spans}
    for s in spans:
        assert s["parent_id"] == 0 or (s["trace_id"], s["parent_id"]) in ids, s
    names = {s["name"] for s in spans}
    for name in ("harness.setup", "harness.construct", "harness.play",
                 "harness.run", "sim.step", "harness.experiment"):
        assert name in names, f"no {name} span"
    assert {s["workload"] for s in spans} == set(WORKLOADS)


def test_other_seed_contract_run(runpy, build_dir):
    proc = run([runpy, "--smoke", "--workload", "shards1k_t2", "--seed", "7",
                "--seconds", "0.5", "--trace", "0", "--build-dir", build_dir])
    result = result_line(proc.stdout)
    assert result["correct"], result
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_tampered_pin_fails(runpy, build_dir, tmp):
    pins = json.loads((BENCH_DIR / "pins.json").read_text())
    pins["smoke"]["group16"]["fingerprint"] = "0" * 16
    tampered = Path(tmp) / "pins.json"
    tampered.write_text(json.dumps(pins))
    proc = run([runpy, "--smoke", "--workload", "group16", "--pins",
                str(tampered), "--build-dir", build_dir], expect_ok=False)
    assert proc.returncode != 0, "a tampered pin must fail the run"
    result = result_line(proc.stdout)
    assert not result["correct"], result
    assert result["failed"] == result["attempted"], result


def synthetic(path, values_by_workload):
    runs = []
    n = len(next(iter(values_by_workload.values())))
    for i in range(n):
        runs.append({"seed": i, "workloads": {
            w: {"metrics": {"run_s": {"value": vs[i], "unit": "s"}}}
            for w, vs in values_by_workload.items()}})
    Path(path).write_text(json.dumps({"runs": runs}))


def test_compare_verdicts(tmp):
    steady = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.01]
    base = {w: steady for w in ("same", "slower", "faster", "noisy")}
    new = {
        "same": [v * 1.01 for v in reversed(steady)],
        "slower": [v * 1.3 for v in steady],
        "faster": [v * 0.7 for v in steady],
        "noisy": [0.7, 1.3, 0.8, 1.2, 0.75, 1.25, 0.9, 1.1, 1.0, 1.05],
    }
    synthetic(Path(tmp) / "base.json", base)
    synthetic(Path(tmp) / "new.json", new)
    out = Path(tmp) / "verdicts.json"
    proc = run([str(BENCH_DIR / "compare.py"), str(Path(tmp) / "base.json"),
                "--new", str(Path(tmp) / "new.json"), "--json", str(out)],
               expect_ok=False)
    assert proc.returncode == 1, "a worse verdict must exit 1"
    got = {r["workload"]: r["verdict"] for r in json.loads(out.read_text())}
    assert got == {"same": "unchanged", "slower": "worse",
                   "faster": "better", "noisy": "unresolved"}, got


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--build-dir", default=str(ROOT / "build-bench"))
    args = ap.parse_args()
    runpy = str(BENCH_DIR / "run.py")
    with tempfile.TemporaryDirectory(dir=args.build_dir) as tmp:
        test_smoke_prints_every_metric(runpy, args.build_dir)
        test_other_seed_contract_run(runpy, args.build_dir)
        test_tampered_pin_fails(runpy, args.build_dir, tmp)
        test_compare_verdicts(tmp)
    print("pmbench self-test: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
