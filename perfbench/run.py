"""graphtables benchmark: run one workload with one seed and print its metrics.

    python3 perfbench/run.py --workload oltp_mix --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the engine is imported from its `src/`.
With `--trace 0` the last line of standard output is a JSON object whose
metrics are the end-to-end metrics in BENCHMARK.json; with `--trace 1` they
are the per-layer metrics.  The lines before it print all ten end-to-end
metrics (or the per-layer split) with units and sample counts.  The full
report, with provenance, goes to `.bench_results/` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import sys

ROOT = pathlib.Path.cwd()
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["oltp_mix", "path_query", "component_fetch"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def gated_names() -> tuple[list[str], list[str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ([m["name"] for m in spec["end_to_end"]], [m["name"] for m in spec["per_layer"]])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "graphtables" / "__init__.py").is_file():
        print(f"perfbench: no graphtables source in {SRC}; run from a checkout's root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import graphtables
    if SRC.resolve() not in pathlib.Path(graphtables.__file__).resolve().parents:
        print(f"perfbench: imported graphtables from {graphtables.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import harness

    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    results = ROOT / ".bench_results"
    harness.fresh_dir(work)
    results.mkdir(exist_ok=True)
    run = harness.Run(args.workload, args.seed, args.seconds, work)
    try:
        report = run.trace() if args.trace else run.measure()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report["workload"] = args.workload
    report["provenance"] = harness.provenance(ROOT, args.seed, args.seconds, bool(args.trace))

    e2e_names, layer_names = gated_names()
    print(f"perfbench {args.workload} " + " ".join(
        f"{k}={v}" for k, v in report["provenance"].items()))
    if args.trace:
        report["identity"] = run.identity
        print_layers(report)
        metrics = {name: report["per_layer"][name] for name in layer_names}
        name = f"BENCH_{args.workload}_trace"
        write_spans(results / f"spans_{args.workload}.tsv", run.spans)
    else:
        print_end_to_end(report)
        units = {n: u for n, u, _ in harness.END_TO_END}
        metrics = {name: (report["end_to_end"][name][0], units[name]) for name in e2e_names}
        name = f"BENCH_{args.workload}"
    (results / f"{name}.json").write_text(json.dumps(report, indent=1, default=str) + "\n")
    for cls, info in sorted(report["failures"].items()):
        print(f"failed {cls}: {info['count']} x {info['first']}")
    for description, outcome in report.get("defect_probes", {}).items():
        print(f"known-defect probe, {description}: {outcome}")
    if "host_clock" in report:
        print("host clock: " + " ".join(f"{k}={v:.6g}" for k, v in report["host_clock"].items()))
    for problem in report["problems"]:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def print_end_to_end(report) -> None:
    import harness
    print(f"{'metric':<22}{'value':>16}  {'unit':<7}samples")
    for name, unit, _better in harness.END_TO_END:
        value, samples = report["end_to_end"][name]
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:<22}{shown:>16}  {unit:<7}{samples}")


def print_layers(report) -> None:
    print(f"{'metric':<34}{'value':>14}  unit")
    for name, (value, unit) in report["per_layer"].items():
        print(f"{name:<34}{value:>14.6g}  {unit}")
    ident = report["identity"]
    parts = " + ".join(f"{layer} {us:.2f}" for layer, us in ident["layers_us"].items() if us)
    print(f"self time per op (us): {parts} + unattributed {ident['unattributed_us']:.2f} "
          f"= {ident['traced_us'] - ident['residual_us']:.2f}; traced op time "
          f"{ident['traced_us']:.2f}; residual {ident['residual_us']:.2e}")


def write_spans(path, spans) -> None:
    with open(path, "w") as fh:
        fh.write("phase\tspan\tparent\top\tname\tstart_ns\tend_ns\n")
        for span in spans:
            fh.write("\t".join(map(str, span)) + "\n")


if __name__ == "__main__":
    sys.exit(main())
