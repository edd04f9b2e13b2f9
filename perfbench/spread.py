"""Run workloads over several seeds and report each end-to-end metric's
median and quartile spread against its bound in BENCHMARK.json.

    python3 perfbench/spread.py --seeds 1-10 [--workload oltp_mix ...]

Run from the root of a checkout.  Runs go one after another through
`perfbench/run.py`, with `run_seconds` from BENCHMARK.json.  The spread is
(Q3 - Q1) / median with the quartiles of `statistics.quantiles(n=4)`; a
benchmark is steady when every spread but that of `setup_s` is below a third
of its bound.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time


def seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--workload", action="append")
    args = parser.parse_args()
    spec = json.loads(pathlib.Path("BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    steady = True
    for workload in workloads:
        values: dict[str, list[float]] = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in args.seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                spec["command"] + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                print(proc.stdout, proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            for name, entry in result["metrics"].items():
                values[name].append(entry["value"])
            print(f"{workload} seed {seed}: {time.perf_counter() - start:.1f} s wall, "
                  f"correct={result['correct']} failed={result['failed']}/{result['attempted']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            q1, median, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / median
            ok = metric["name"] == "setup_s" or spread < metric["bound"] / 3
            steady &= ok
            print(f"  {metric['name']:<14} median {median:<12.6g} spread {spread:6.3f}"
                  f"  bound {metric['bound']:.2f}  {'ok' if ok else 'WIDE'}", flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
