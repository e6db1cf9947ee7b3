#!/usr/bin/env python3
"""Smoke test of the bench_e2e benchmark at toy sizes (seconds once built).

    python3 bench_e2e/smoke_test.py

Runs run.py on the toy workloads with --trace 0 and 1 and checks that the
result line has its four keys, that every metric of BENCHMARK.json prints
with its unit, that the outputs were checked and the traced run was
compared against Framework::run, and that the failure paths (an abnormal
child exit, a traced run that differs) count as failures.
"""

import json
import math
import os
import subprocess
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402

TOYS = ["toy-vae", "toy-baseline", "toy-paper"]


def bench(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_result(result, expected, where):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, where
    assert result["attempted"] >= 1 and result["failed"] == 0, where
    assert list(result["metrics"]) == [n for n, _ in expected], where
    for name, unit in expected:
        m = result["metrics"][name]
        assert set(m) == {"value", "unit"} and m["unit"] == unit, (where, name)
        assert isinstance(m["value"], (int, float)), (where, name)
        assert math.isfinite(m["value"]), (where, name)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    assert e2e == run.END_TO_END, "BENCHMARK.json end_to_end != run.py"
    assert layers == run.PER_LAYER, "BENCHMARK.json per_layer != run.py"
    assert all(w["name"] in run.WORKLOADS for w in spec["workloads"])

    for workload in TOYS:
        record, result = bench(workload, 0)
        check_result(result, e2e, f"{workload} trace 0")
        assert record["fingerprint"]["seed"] == 7
        assert all(s["check_ok"] and s["check"] for s in record["solves"])

        record, result = bench(workload, 1)
        check_result(result, layers, f"{workload} trace 1")
        modes = [s["mode"] for s in record["solves"]]
        assert modes.count("plain") == modes.count("traced") == \
            result["attempted"], modes
        # Each pair shares one seed and, having passed, one ln g digest.
        digests = {s["lng_digest"] for s in record["solves"]}
        assert len(digests) == result["attempted"], digests
        print(f"ok {workload}")

    # The fidelity check rejects a traced run that drifted by one sweep.
    plain = {"seed": 1, "total_sweeps": 10, "lng_digest": "ab"}
    assert run.fidelity(plain, dict(plain)) is None
    assert run.fidelity(plain, dict(plain, total_sweeps=11)) is not None
    assert run.fidelity(plain, dict(plain, lng_digest="ac")) is not None

    # An abnormal child exit is a failure carrying its last stderr line.
    run.WORKLOADS["toy-broken"] = {
        "solve_s": 1.0, "args": {"cells": 2, "no_such_flag": 1}}
    record, why = run.run_child("toy-broken", 1, "plain", "smoke",
                                deadline=run.time.monotonic() + 60)
    assert record["exit"] != 0 and "unknown flag --no_such_flag" in why, why
    print("ok failure paths")
    return 0


if __name__ == "__main__":
    sys.exit(main())
