"""Runs one workload end to end and computes its metrics.

Untraced run (`trace=False`):
  1. build the starting database from the seed several times (at least
     `MIN_SETUP_BUILDS`), timing each build (`setup_s` is their median) and
     checking that every build reaches the same `state_hash()`;
  2. run one operation of each class untimed, so lazily built value indexes
     exist before timing;
  3. the timed phase: one client, closed loop, until `seconds` have passed
     and the workload is at a boundary.  A workload with `round_ops` runs it
     in rounds of that many operations, each on a freshly built database
     (its build is one more `setup_s` sample) after its own untimed warm-up;
  4. compare the whole database with the workload's model, `close()`, reopen
     the log and check `state_hash()`, at the end of every round.

`reopen_s` times `Database(path)` on the log as it stood at the workload's
checkpoint, between operations of the timed phase (see `Reopens`).  Every
end-to-end time is scaled to a reference host speed by calibration bursts
run between operations (see `hostclock`).

Traced run (`trace=True`): two databases are built from the seed, one of
them under the tracer.  The untraced one runs `seconds / 2` as the base for
`trace.overhead_ratio`, then the other runs `seconds / 2` under the tracer,
and its log is reopened under the tracer.  End-to-end numbers come only from
untraced runs.
"""

from __future__ import annotations

import gc
import math
import os
import resource
import shutil
import statistics
import sys
import time
from time import perf_counter_ns

import hostclock
import tracer as tracing
from workloads import WORKLOADS, HttpReply

# set-up and reopen are timed several times and reported as medians; short
# builds repeat until they fill MIN_SETUP_SECONDS
MIN_SETUP_BUILDS, MAX_SETUP_BUILDS, MIN_SETUP_SECONDS = 3, 25, 3.0
REOPENS = 21
FLUSH_POLICY = "fsync=False (write plus flush per commit)"
# later gain claims must also hold on this seed, which tuning never used
HELD_OUT_SEED = 90001

# (name, unit, better); the ten end-to-end metrics of every workload
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("ops_per_s", "ops/s", "higher"),
    ("read_p50_ms", "ms", "lower"),
    ("read_p99_ms", "ms", "lower"),
    ("write_p50_ms", "ms", "lower"),
    ("write_p99_ms", "ms", "lower"),
    ("reopen_s", "s", "lower"),
    ("log_bytes_per_write", "B", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("error_rate", "ratio", "lower"),
]


def percentile(sorted_values, p: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(p * len(sorted_values)) - 1)]


class PhaseStats:
    """What one timed phase did: latencies by kind, failures by class."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.writes = 0
        self.busy_ns = 0
        # (end ns, duration ns, kind) per operation; kind is None if it failed
        self.timings: list[tuple[int, int, str | None]] = []
        self.failures: dict[str, list] = {}       # class -> [count, first message]
        self.http_requests = 0
        self.http_bytes = 0
        self.http_ns = 0
        self.checkpoint = None                    # (peak rss KiB, log bytes)

    def fail(self, cls: str, message: str) -> None:
        self.failed += 1
        entry = self.failures.setdefault(cls, [0, message])
        entry[0] += 1

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def ops_per_s(self) -> float:
        """Completed operations per second of unscaled engine time."""
        return self.completed / (self.busy_ns / 1e9) if self.busy_ns else 0.0


def log_size(db) -> int:
    return os.path.getsize(db.path)


def peak_rss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def build(workload_cls, seed: int, path, small: bool, tracer=None, clock=None):
    """Build the starting database; returns (db, workload, seconds taken,
    unscaled seconds).  With a clock, calibration bursts run between the
    set-up statements, outside the time taken, which is scaled by them."""
    from graphtables import Database
    workload = workload_cls(seed, small)
    texts = list(workload.setup_statements())
    gc.collect()
    steps = []                                    # (end ns, duration ns)
    if clock is not None:
        clock.burst()
    start = perf_counter_ns()
    db = Database(path)
    end = perf_counter_ns()
    steps.append((end, end - start))
    for text in texts:
        if clock is not None:
            clock.poll()
        start = perf_counter_ns()
        if tracer is None:
            db.execute(text)
        else:
            tracer.run_op("setup", lambda: db.execute(text))
        end = perf_counter_ns()
        steps.append((end, end - start))
    raw = sum(d for _, d in steps) / 1e9
    if clock is None:
        return db, workload, raw, raw
    clock.burst()
    return db, workload, sum(clock.scale(e, d) for e, d in steps) / 1e9, raw


def run_one(op, stats: PhaseStats, tracer, tamper) -> None:
    stats.attempted += 1
    if op.kind == "write":
        stats.writes += 1
    start = perf_counter_ns()
    try:
        result = op.run() if tracer is None else tracer.run_op(op.cls, op.run)
    except Exception as exc:  # the loop records every failure and goes on
        end = perf_counter_ns()
        stats.busy_ns += end - start
        stats.timings.append((end, end - start, None))
        stats.fail(op.cls, f"{type(exc).__name__}: {str(exc)[:120]}")
        return
    end = perf_counter_ns()
    elapsed = end - start
    stats.busy_ns += elapsed
    if isinstance(result, HttpReply):
        stats.http_requests += 1
        stats.http_bytes += len(result.body)
        stats.http_ns += elapsed
    if tamper is not None:
        result = tamper(op, result)
    if not op.check(result):
        stats.wrong += 1
        stats.timings.append((end, elapsed, None))
        stats.fail(op.cls, "wrong answer")
        return
    stats.timings.append((end, elapsed, op.kind))


class Reopens:
    """Times `Database(path)` on a copy of the log as it stood at the
    checkpoint.  The samples are spread over the rest of the timed phase,
    between operations, so that they meet the host at several speeds.  Each
    open has a calibration burst right before and after it."""

    def __init__(self, source, copy, clock):
        self.source, self.copy, self.clock = source, copy, clock
        self.due: list[float] = []
        self.samples: list[tuple[int, int]] = []  # (end ns, duration ns)
        self.log_bytes = 0

    def start(self, log_bytes: int, deadline: float) -> None:
        self.log_bytes = log_bytes
        with open(self.source, "rb") as src, open(self.copy, "wb") as dst:
            dst.write(src.read(log_bytes))
        now = time.perf_counter()
        gap = max(0.0, deadline - now) / REOPENS
        self.due = [now + k * gap for k in range(REOPENS)]

    def poll(self) -> None:
        if self.due and time.perf_counter() >= self.due[0]:
            self.due.pop(0)
            self.sample()

    def finish(self) -> None:
        while len(self.samples) < REOPENS:
            self.sample()

    def seconds(self, scaled: bool = True) -> list[float]:
        return [(self.clock.scale(e, d) if scaled else d) / 1e9 for e, d in self.samples]

    def sample(self) -> None:
        from graphtables import Database
        # the workload's own heap is frozen out of the collector's scans, so
        # the open costs what it costs a fresh process, however far the
        # timed phase has grown that heap
        gc.collect()
        gc.freeze()
        try:
            self.clock.burst()
            start = perf_counter_ns()
            reopened = Database(self.copy)
            end = perf_counter_ns()
            self.clock.burst()
            self.samples.append((end, end - start))
            reopened.close()
        finally:
            gc.unfreeze()


def timed_phase(db, workload, seconds: float, tracer=None, tamper=None,
                reopens: Reopens | None = None, clock=None, next_round=None):
    """Runs operations until `seconds` have passed and the workload is at a
    boundary; returns (stats, db, workload), the last two those of the last
    round.  With `next_round`, each `workload.round_ops` operations end a
    round: `next_round(db, workload)` closes it and returns the next one."""
    stats = PhaseStats()
    deadline = time.perf_counter() + seconds
    round_start = 0
    while time.perf_counter() < deadline or not workload.at_boundary():
        if next_round is not None and workload.round_ops and \
                stats.attempted - round_start >= workload.round_ops:
            db, workload = next_round(db, workload)
            round_start = stats.attempted
        run_one(workload.next_op(), stats, tracer, tamper)
        if clock is not None:
            clock.poll()
        if stats.attempted == workload.checkpoint_ops:
            stats.checkpoint = (peak_rss_kib(), log_size(db))
            if reopens is not None:
                reopens.start(stats.checkpoint[1], deadline)
        elif reopens is not None:
            reopens.poll()
    if stats.checkpoint is None:
        stats.checkpoint = (peak_rss_kib(), log_size(db))
        if reopens is not None:
            reopens.start(stats.checkpoint[1], deadline)
    if reopens is not None:
        reopens.finish()
    return stats, db, workload


class Run:
    """One invocation: a workload, a seed, a length and a work directory."""

    def __init__(self, workload: str, seed: int, seconds: float, work_dir,
                 small: bool = False, tamper=None):
        self.workload_cls = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.work_dir = work_dir
        self.small = small
        self.tamper = tamper
        self.problems: list[str] = []
        self.spans: list[tuple] = []
        self.clock = None
        self.log_start = self.log_appended = 0    # timed phase's log bytes

    def path(self, name: str):
        return self.work_dir / f"{name}.db"

    def _build(self, name, tracer=None):
        path = self.path(name)
        if path.exists():
            path.unlink()
        return build(self.workload_cls, self.seed, path, self.small, tracer, self.clock)

    def _start(self, db, workload) -> None:
        workload.start(db)
        self.log_start = log_size(db)
        warm = PhaseStats()
        for op in workload.warmup_ops():
            run_one(op, warm, None, None)
        if warm.wrong:
            self.problems.append(f"{warm.wrong} wrong answers in the warm-up")

    def _finish(self, db, workload) -> str:
        """Check the database against the model, close it, reopen the log
        and compare state hashes; returns the database's path."""
        from graphtables import Database
        self.problems += workload.final_problems()
        self.log_appended += log_size(db) - self.log_start
        workload.stop()
        digest = db.state_hash()
        db.close()
        again = Database(db.path)
        if again.state_hash() != digest:
            self.problems.append(f"state_hash differs after reopening {db.path.name}")
        again.close()
        return db.path

    # --- untraced: the end-to-end metrics ---

    def measure(self) -> dict:
        self.clock = hostclock.HostClock()
        setup_times, raw_setup, hashes = [], [], set()

        def setup():
            db, workload, seconds, raw = self._build("workload")
            setup_times.append(seconds)
            raw_setup.append(raw)
            hashes.add(db.state_hash())
            return db, workload

        db, workload = setup()
        while len(setup_times) < MIN_SETUP_BUILDS or (
                sum(raw_setup) < MIN_SETUP_SECONDS and len(setup_times) < MAX_SETUP_BUILDS):
            # the last build is released first, so it does not add to
            # `peak_rss_mb`
            db.close()
            db = workload = None
            db, workload = setup()
        rounds = 1

        def next_round(db, workload):
            nonlocal rounds
            self._finish(db, workload)
            db, workload = setup()
            workload.reseed(rounds)
            rounds += 1
            self._start(db, workload)
            return db, workload

        self._start(db, workload)
        reopens = Reopens(db.path, self.path("reopen"), self.clock)
        stats, db, workload = timed_phase(db, workload, self.seconds, tamper=self.tamper,
                                          reopens=reopens, clock=self.clock,
                                          next_round=next_round)
        if len(hashes) != 1:
            self.problems.append("setup builds from one seed reached different states")
        defects = self._probe_defects(workload)
        self._finish(db, workload)
        checkpoint_op = min(stats.attempted, workload.checkpoint_ops)

        scale = self.clock.scale
        busy = sum(scale(e, d) for e, d, _ in stats.timings)
        reads = sorted(scale(e, d) for e, d, kind in stats.timings if kind == "read")
        writes = sorted(scale(e, d) for e, d, kind in stats.timings if kind == "write")
        raw_reads = sorted(d for _, d, kind in stats.timings if kind == "read")
        raw_writes = sorted(d for _, d, kind in stats.timings if kind == "write")
        completed_writes = len(writes)
        reopen_times = reopens.seconds()
        metrics = {
            "setup_s": (statistics.median(setup_times),
                        f"median of {len(setup_times)} builds; "
                        f"unscaled {statistics.median(raw_setup):.6g}"),
            "ops_per_s": (stats.completed / (busy / 1e9) if busy else 0.0,
                          f"{stats.completed} ops completed in {rounds} round(s); "
                          f"unscaled {stats.ops_per_s():.6g}"),
            "read_p50_ms": self._pct(reads, 0.50, raw_reads),
            "read_p99_ms": self._pct(reads, 0.99, raw_reads),
            "write_p50_ms": self._pct(writes, 0.50, raw_writes),
            "write_p99_ms": self._pct(writes, 0.99, raw_writes),
            "reopen_s": (statistics.median(reopen_times),
                         f"median of {len(reopen_times)} opens, {reopens.log_bytes} log bytes; "
                         f"unscaled {statistics.median(reopens.seconds(scaled=False)):.6g}"),
            "log_bytes_per_write": (self.log_appended / completed_writes
                                    if completed_writes else None,
                                    f"{completed_writes} writes"),
            "peak_rss_mb": (stats.checkpoint[0] / 1024, f"at op {checkpoint_op}"),
            "error_rate": (stats.failed / stats.attempted, f"{stats.failed} of {stats.attempted}"),
        }
        report = self._report(stats, metrics, {})
        report["defect_probes"] = defects
        report["host_clock"] = self.clock.summary()
        return report

    @staticmethod
    def _probe_defects(workload) -> dict:
        """Runs the workload's known-defect probes once, untimed and outside
        `attempted`; returns {description: outcome}."""
        outcomes = {}
        for description, op in workload.defect_probes():
            try:
                result = op.run()
            except Exception as exc:  # the probe reports what the defect raises
                outcomes[description] = f"{type(exc).__name__}: {str(exc)[:120]}"
                continue
            outcomes[description] = "passed" if op.check(result) else "wrong answer"
        return outcomes

    @staticmethod
    def _pct(sorted_ns, p, raw_sorted_ns=None):
        if not sorted_ns:
            return None, "0 samples"
        beyond = len(sorted_ns) - math.ceil(p * len(sorted_ns))
        note = f"{len(sorted_ns)} samples, {beyond} beyond"
        if raw_sorted_ns:
            note += f"; unscaled {percentile(raw_sorted_ns, p) / 1e6:.6g}"
        return percentile(sorted_ns, p) / 1e6, note

    # --- traced: the per-layer split ---

    def trace(self) -> dict:
        with tracing.Tracer("setup") as setup_tracer:
            traced_db, traced_wl, _, _ = self._build("traced", setup_tracer)
        base_db, base_wl, _, _ = self._build("base")
        self._start(base_db, base_wl)
        base, _, _ = timed_phase(base_db, base_wl, self.seconds / 2, tamper=self.tamper)
        self._finish(base_db, base_wl)

        self._start(traced_db, traced_wl)
        with tracing.Tracer("timed") as timed_tracer:
            traced, _, _ = timed_phase(traced_db, traced_wl, self.seconds / 2, timed_tracer,
                                       self.tamper)
        path = self._finish(traced_db, traced_wl)
        from graphtables import Database
        with tracing.Tracer("reopen") as reopen_tracer:
            reopen_tracer.run_op("reopen", lambda: Database(path).close())

        for t in (setup_tracer, timed_tracer, reopen_tracer):
            self.spans += [(t.phase,) + span for span in t.spans]
        layers = per_layer(setup_tracer, timed_tracer, reopen_tracer, traced, base)
        self.identity = identity(timed_tracer, traced)
        return self._report(traced, {}, layers)

    def _report(self, stats: PhaseStats, end_to_end: dict, layers: dict) -> dict:
        if stats.wrong:
            self.problems.append(f"{stats.wrong} wrong answers")
        return {
            "correct": not self.problems,
            "attempted": stats.attempted,
            "failed": stats.failed,
            "failures": {cls: {"count": c, "first": m} for cls, (c, m) in stats.failures.items()},
            "problems": self.problems,
            "end_to_end": end_to_end,
            "per_layer": layers,
        }


def _per(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer(setup, timed, reopen, traced: PhaseStats, base: PhaseStats) -> dict:
    """Per-layer metrics as {name: (value, unit)}; per-write and per-request
    figures read 0 on a workload with no writes or requests."""
    ops, writes, reqs = traced.attempted, traced.writes, traced.http_requests
    records = reopen.counts["log.records"]
    stmts = setup.calls["op:setup"]
    s, c, n, i = timed.self_ns, timed.counts, timed.calls, timed.incl_ns

    def us_per(ns, d):
        return _per(ns, d) / 1e3

    out = {}
    for layer in ("lexer", "parser", "engine", "executor", "matcher", "exprs",
                  "catalog", "httpd"):
        out[f"{layer}.us_per_op"] = (us_per(s[layer], ops), "us")
    out.update({
        "lexer.tokens_per_op": (_per(c["lexer.tokens"], ops), "count"),
        "parser.repeat_text_share": (_per(c["parser.repeat_texts"], n["parser.parse_statement"]),
                                     "ratio"),
        "matcher.rows_per_op": (_per(c["matcher.rows"], ops), "count"),
        "exprs.evals_per_op": (_per(c["exprs.evals"], ops), "count"),
        "values.compares_per_op": (_per(c["values.compares"], ops), "count"),
        "catalog.calls_per_op": (_per(n["catalog.call"], ops), "count"),
        "storage.read_us_per_op": (us_per(s["storage.read"], ops), "us"),
        "storage.lookups_per_op": (_per(c["storage.lookups"], ops), "count"),
        "storage.lookup_hit_ratio": (_per(c["storage.lookup_rows"], c["storage.examined"]),
                                     "ratio"),
        "storage.adjacency_calls_per_op": (_per(c["storage.adjacency_calls"], ops), "count"),
        "storage.adjacent_edges_per_call": (_per(c["storage.adjacent_edges"],
                                                 c["storage.adjacency_calls"]), "count"),
        "storage.scan_rows_per_op": (_per(c["storage.scan_rows"], ops), "count"),
        "storage.validate_us_per_write": (us_per(s["storage.validate"], writes), "us"),
        "storage.staged_rows_per_write": (_per(c["storage.staged_rows"], writes), "count"),
        "storage.apply_us_per_write": (us_per(s["storage.apply"], writes), "us"),
        "log.encode_us_per_write": (us_per(s["log.encode"], writes), "us"),
        "log.append_us_per_write": (us_per(s["log.append"], writes), "us"),
        "graphset.delta_us_per_write": (us_per(s["graphset"], writes), "us"),
        "graphset.add_calls_per_write": (_per(c["graphset.add_calls"], writes), "count"),
        "log.read_us_per_record": (us_per(reopen.self_ns["log.read"], records), "us"),
        "log.decode_us_per_record": (us_per(reopen.self_ns["log.decode"], records), "us"),
        "engine.replay_us_per_record": (us_per(reopen.self_ns["engine"], records), "us"),
        "httpd.lookup_us_per_req": (us_per(i["httpd.handle"] - i["httpd.document"], reqs), "us"),
        "httpd.document_us_per_req": (us_per(i["httpd.document"], reqs), "us"),
        "httpd.other_us_per_req": (us_per(traced.http_ns - i["httpd.handle"], reqs), "us"),
        "httpd.nodes_per_req": (_per(c["httpd.nodes"], reqs), "count"),
        "httpd.bytes_per_req": (_per(traced.http_bytes, reqs), "B"),
        "setup.us_per_stmt": (us_per(setup.incl_ns["bench.op"], stmts), "us"),
        "setup.lexer_us_per_stmt": (us_per(setup.self_ns["lexer"], stmts), "us"),
        "setup.parser_us_per_stmt": (us_per(setup.self_ns["parser"], stmts), "us"),
        "setup.validate_us_per_stmt": (us_per(setup.self_ns["storage.validate"], stmts), "us"),
        "setup.staged_rows_per_stmt": (_per(setup.counts["storage.staged_rows"], stmts), "count"),
        "setup.compares_per_stmt": (_per(setup.counts["values.compares"], stmts), "count"),
        "trace.us_per_op": (us_per(i["bench.op"], ops), "us"),
        "trace.unattributed_us_per_op": (us_per(s["unattributed"], ops), "us"),
        "trace.base_ops_per_s": (base.ops_per_s(), "ops/s"),
        "trace.traced_ops_per_s": (traced.ops_per_s(), "ops/s"),
        "trace.overhead_ratio": (_per(traced.ops_per_s(), base.ops_per_s()), "ratio"),
    })
    return out


def identity(timed, traced: PhaseStats) -> dict:
    """Per operation: the layers' self times, the unattributed rest, and the
    traced operation time they must add up to."""
    ops = traced.attempted
    parts = {layer: timed.self_ns[layer] / ops / 1e3 for layer in tracing.LAYERS}
    unattributed = timed.self_ns["unattributed"] / ops / 1e3
    total = timed.incl_ns["bench.op"] / ops / 1e3
    return {"layers_us": parts, "unattributed_us": unattributed, "traced_us": total,
            "residual_us": total - sum(parts.values()) - unattributed}


def provenance(root, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": seconds,
        "trace": trace,
        "git_revision": git_revision(root),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "flush_policy": FLUSH_POLICY,
    }


def git_revision(root) -> str:
    """HEAD of the checkout, read from its .git directory without running
    git (a checkout without .git reports "unknown")."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fresh_dir(path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
