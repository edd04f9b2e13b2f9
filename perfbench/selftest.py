"""Self-test of the benchmark at tiny sizes (a few seconds in all).

    python3 perfbench/selftest.py

Run from the root of a checkout.  For every workload it checks that an
untraced run reports the ten end-to-end metrics with their units and passes
its own correctness checks (and that `path_query` reports its known-defect
probe), and that a traced run reports every per-layer
metric in BENCHMARK.json with the layers' self times adding up to the traced
operation time.  It then injects wrong engine answers through the oracle
hook and checks that each counts as a failed operation, that host-speed
scaling divides by the calibration bursts' cost, and that the command
refuses to run where there is no engine source.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path.cwd()
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import hostclock  # noqa: E402
from workloads import WORKLOADS, HttpReply  # noqa: E402


def corrupt(result):
    """A wrong answer of the same shape as `result`."""
    if isinstance(result, HttpReply):
        return HttpReply(result.status, b'{"nodes": [], "edges": []}')
    from graphtables import ResultTable
    return ResultTable(result.columns, result.rows + [[None] * len(result.columns)])


def check_workload(name: str, work, errors: list[str]) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    report = harness.Run(name, 3, 0.3, work, small=True).measure()
    if not report["correct"] or report["failed"]:
        errors.append(f"{name}: untraced run not clean: {report['problems']} "
                      f"{report['failures']}")
    units = {n: u for n, u, _ in harness.END_TO_END}
    if set(report["end_to_end"]) != set(units):
        errors.append(f"{name}: end-to-end metrics {sorted(report['end_to_end'])}")
    for gated in spec["end_to_end"]:
        value = report["end_to_end"][gated["name"]][0]
        if units[gated["name"]] != gated["unit"] or not isinstance(value, float) or value <= 0:
            errors.append(f"{name}: {gated['name']} = {value!r}")

    if report["host_clock"]["bursts"] < 2:
        errors.append(f"{name}: host clock ran {report['host_clock']['bursts']} bursts")
    probes = report["defect_probes"]
    if name == "path_query" and not probes:
        errors.append(f"{name}: no known-defect probe outcome reported")

    run = harness.Run(name, 3, 0.3, work, small=True)
    report = run.trace()
    for layer in spec["per_layer"]:
        entry = report["per_layer"].get(layer["name"])
        if entry is None or entry[1] != layer["unit"]:
            errors.append(f"{name}: per-layer {layer['name']} = {entry!r}")
    if abs(run.identity["residual_us"]) > 1e-6 * run.identity["traced_us"]:
        errors.append(f"{name}: self times do not add up: {run.identity}")

    injected = []

    def tamper(op, result):
        if op.kind == "read" and len(injected) < 5:
            injected.append(op.cls)
            return corrupt(result)
        return result
    report = harness.Run(name, 3, 0.3, work, small=True, tamper=tamper).measure()
    if report["correct"] or report["failed"] != len(injected) or not injected:
        errors.append(f"{name}: {len(injected)} injected wrong answers, "
                      f"{report['failed']} failed, correct={report['correct']}")


def check_host_clock(errors: list[str]) -> None:
    clock = hostclock.HostClock()
    # a host that halves its speed halfway: times scale by the nearest bursts
    clock.ends = list(range(100, 1300, 100))
    clock.costs = [2 * hostclock.REFERENCE_NS] * 6 + [4 * hostclock.REFERENCE_NS] * 6
    for end, expected in ((150, 500), (1150, 250), (5000, 250)):
        if abs(clock.scale(end, 1000) - expected) > 1e-9:
            errors.append(f"host clock scaled 1000 ns at {end} to {clock.scale(end, 1000)}")


def check_refuses_without_source(work, errors: list[str]) -> None:
    bare = work / "bare"
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "oltp_mix",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        errors.append(f"run.py without engine source: exit {proc.returncode}, "
                      f"output {proc.stdout[-200:]!r}")


def main() -> int:
    work = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    harness.fresh_dir(work)
    errors: list[str] = []
    try:
        for name in WORKLOADS:
            check_workload(name, work, errors)
            print(f"{name}: checked", flush=True)
        check_host_clock(errors)
        check_refuses_without_source(work, errors)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for error in errors:
        print("FAIL", error)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
