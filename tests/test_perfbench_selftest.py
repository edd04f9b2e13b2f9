"""The benchmark's self-test, run as part of the test suite.

The tracer in `perfbench/` wraps engine functions by name, so renaming one of
them breaks traced benchmark runs; this test makes that show up here.
"""

import importlib.util
import pathlib
import subprocess
import sys

from graphtables.engine import Database

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_the_tracer_times_each_layer_a_statement_passes():
    """`perfbench/tracer.py` times a layer by replacing a module attribute,
    so an engine module that bound such a function by name at import
    (`from .matcher import run_match` in `executor`) would move the layer's
    time to its caller without an error."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)
    db = Database()
    for text in ("CREATE TYPE N AS (K INT) NODETYPE",
                 "CREATE TYPE E AS (W INT) EDGETYPE (LEAVING N, ARRIVING N)",
                 "CREATE (:N {K: 1})-[:E {W: 1}]->(:N {K: 2})"):
        db.execute(text)
    tracer = tracer_module.Tracer("selftest")
    with tracer:
        tracer.run_op("create", lambda: db.execute("CREATE (:N {K: 3}), (:N {K: 4})"))
        for _ in range(4):
            rows = tracer.run_op("read", lambda: db.execute(
                "MATCH (a:N {K: 1})-[:E]->(b) RETURN b.K").rows)
            assert rows == [[2]]
    for name, layer in (("lexer.tokenize", "lexer"), ("parser.parse_statement", "parser"),
                        ("executor.run_statement", "executor"),
                        ("matcher.run_match", "matcher")):
        assert tracer.calls[name] > 0 and tracer.self_ns[layer] > 0, name
    assert tracer.calls["matcher.run_match"] == 4
