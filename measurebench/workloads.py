"""The workloads of the measure-engine benchmark.

Every workload is a closed loop: each caller sends its next statement only
after the previous one answered.  One seed drives everything random: the
TPC-H rows, the order of each cycle, the literal variants of the listing
statements and the rows the writes insert and delete.  The program only
ever receives the generated SQL text and rows.

* ``tpch_cold``       seven TPC-H measure queries, ``Database.execute``, SF 0.001
* ``strategy_auto``   TPC-H under ``strategy="auto"`` plus 29 listing/strategy pairs
* ``listings_server_rw`` the 13 paper listings over TCP, plus writes and a
  summary, on one pipelined connection

``WORKLOADS[name](seed, seconds, trace, corrupt)`` returns a
:class:`Report`.  With ``trace=False`` it reports the end-to-end metrics;
with ``trace=True`` it runs the same sequence untraced, traced (see
:mod:`tracing`) and with the engine's own telemetry flipped, and reports
the per-layer metrics.  ``corrupt`` damages one result before it is
checked.
"""

from __future__ import annotations

import collections
import gc
import os
import random
import re
import resource
import socket
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from calibration import REFERENCE_S, Calibration
from oracle import reference_results, same_rows
from tracing import Tracer

from repro.api import Database
from repro.server.protocol import dumps_line, encode_result, loads_line
from repro.workloads.listings import LISTINGS, SETUP
from repro.workloads.paper_data import load_paper_tables
from repro.workloads.tpch import (
    TPCH_QUERIES,
    TPCH_TABLES,
    TpchConfig,
    generate_tpch,
    load_tpch,
    tpch_measures,
)

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"

#: Scale factors.  On the reference host (see calibration.py) a tpch_cold
#: cycle (the seven queries) takes ~2.4 s at SF 0.001 and a strategy_auto
#: cycle ~3.5 s at SF 0.00015.
SF_COLD = 0.001
SF_AUTO = 0.00015
#: Builds per set-up round: about half a second of set-up work each on the
#: reference host (a tpch_cold build takes ~0.09 s, a strategy_auto one
#: ~0.02 s).
SETUP_BUILDS_COLD = 5
SETUP_BUILDS_AUTO = 24
#: In-process runs are whole cycles, as many as fill ``--seconds`` at this
#: many seconds a cycle, so every run of a seed executes the same
#: statements.  A 15 s run holds 6: its tail (the 11th-largest sample) is
#: then the second-slowest query, as it is for any count from 6 to 10.
CYCLE_S = 2.5
#: A run stops early (after a whole cycle in process, and by sending no
#: more statements to a server) once it has taken this many times
#: ``--seconds``, so a much slower program still ends in time.
MAX_STRETCH = 3
#: Set-up is timed in this many rounds and the median round reported.  An
#: in-process round builds its databases several times over (see
#: :func:`_timed_setups`); a server round starts one server.
SETUP_ROUNDS = 9

#: The (listing, strategy) pairs the expansion strategies accept.  Listing 9
#: is refused by every strategy and is therefore absent.
LISTING_PAIRS: tuple = tuple(
    [(name, "subquery") for name in LISTINGS if name != "listing9"]
    + [("listing3", "inline"), ("listing4", "inline")]
    + [("listing12_q4", "window")]
    + [("listing12_q1", "winmagic"), ("listing12_q4", "winmagic")]
    + [(name, "auto") for name in LISTINGS if name != "listing9"]
)

#: Listings whose literal is replaced by a seeded value: (original text,
#: template, values).  2 × 400 + 319 distinct texts, far beyond the
#: 128-entry plan cache.
VARIANTS: dict = {
    "listing7": ("CURRENT orderYear - 1", "CURRENT orderYear - {}", range(1, 401)),
    "listing8": ("<> 'Bob'", "<> 'cust{}'", range(400)),
    "listing9": ("c.custAge >= 18", "c.custAge >= {}", range(-300, 19)),
}

#: The summary the read/write workload creates over Orders, and the
#: roll-up its reads include that the rewriter answers from it.
SUMMARY_DDL = (
    "CREATE MATERIALIZED VIEW orders_by_prod_cust AS "
    "SELECT prodName, custName, SUM(revenue) AS revenue, COUNT(*) AS n "
    "FROM Orders GROUP BY prodName, custName"
)
ROLLUP = (
    "SELECT prodName, SUM(revenue) AS revenue, COUNT(*) AS n "
    "FROM Orders GROUP BY prodName ORDER BY prodName"
)
REFRESH = "REFRESH MATERIALIZED VIEW orders_by_prod_cust"
#: Share of the read/write workload's statements that are writes, and of
#: its reads that are the roll-up.
WRITE_SHARE = 0.25
ROLLUP_SHARE = 0.15
#: At most this many benchmark rows live in Orders at once.
MAX_LIVE_ROWS = 3
#: The read/write workload keeps this many statements in flight on its one
#: connection, and a run sends ``--seconds`` × :data:`RATE` statements
#: (about 1.3 × ``--seconds`` on the reference host).  With one in flight,
#: or with fewer statements, its latencies spread more from run to run.
WINDOW = 2
RATE = 330
#: Tail latencies are taken per block of this many consecutive statements
#: and the median block reported (see :func:`block_tail`).  The in-process
#: workloads run fewer statements than this, so for them it is one block.
TAIL_BLOCK = 660


def _pin(cpu) -> None:
    """Keep the calling thread on one CPU (when the host offers two)."""
    if cpu is not None:
        os.sched_setaffinity(0, {cpu})


#: The CPU the benchmark's own thread runs on and the one the server
#: process runs on; None on a host with a single CPU.  Pinned, neither
#: migrates.
_CPUS = sorted(os.sched_getaffinity(0))
CLIENT_CPU, SERVER_CPU = (_CPUS[0], _CPUS[1]) if len(_CPUS) > 1 else (None, None)


@dataclass
class Report:
    attempted: int = 0
    failed: int = 0
    metrics: dict = field(default_factory=dict)  # name -> (value, unit)
    lines: list = field(default_factory=list)

    def add(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)


# -- statistics ----------------------------------------------------------------


def tail(values: list) -> tuple:
    """``(value, percentile, samples beyond)``: the highest percentile with at
    least ten samples beyond it, i.e. the 11th-largest value.  With fewer
    than 11 samples there is no such percentile; the maximum stands in."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def block_tail(values: list) -> tuple:
    """``(value, percentile, samples beyond, blocks)``: :func:`tail` of each
    run of :data:`TAIL_BLOCK` consecutive samples (the last block takes the
    remainder), and the median of those.  A run with fewer samples is one
    block."""
    blocks = max(1, len(values) // TAIL_BLOCK)
    size = len(values) // blocks
    tails = [
        tail(values[i * size : len(values) if i == blocks - 1 else (i + 1) * size])
        for i in range(blocks)
    ]
    value = statistics.median(t[0] for t in tails)
    return value, tails[0][1], tails[0][2], blocks


def add_latency(report: Report, prefix: str, millis: list) -> None:
    value, pct, beyond, blocks = block_tail(millis)
    report.add(f"{prefix}latency_p50_ms", statistics.median(millis), "ms")
    report.add(f"{prefix}latency_tail_ms", value, "ms")
    per_block = len(millis) // blocks
    report.lines.append(
        f"{prefix}latency_tail_ms is p{pct:.1f} of {per_block} samples "
        f"({beyond} beyond it)"
        + (f", median over {blocks} blocks of {len(millis)}" if blocks > 1 else "")
    )


def end_to_end(report, samples, elapsed, setup_times, rss_mb) -> None:
    """``samples``: ``(kind, seconds, ok)`` for every attempted statement;
    ``elapsed``: the seconds they took together; ``setup_times``: seconds
    per set-up round."""
    millis = [s * 1000.0 for _, s, _ in samples]
    reads = [s * 1000.0 for kind, s, _ in samples if kind == "read"]
    report.add("setup_s", statistics.median(setup_times), "s")
    report.add("throughput_ops_s", len(samples) / elapsed, "1/s")
    add_latency(report, "", millis)
    add_latency(report, "read_", reads)
    report.add("peak_rss_mb", rss_mb, "MB")
    report.lines.append(
        "setup_s rounds: " + ", ".join(f"{t:.4f}" for t in setup_times)
    )


def count(report: Report, samples) -> None:
    report.attempted += len(samples)
    report.failed += sum(1 for _, _, ok in samples if not ok)


def self_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# -- in-process workloads ---------------------------------------------------------


def _tpch_db(tables: dict, telemetry: bool = False) -> Database:
    db = Database(telemetry=telemetry)
    load_tpch(db, tables=tables)
    tpch_measures(db)
    return db


def _paper_db(telemetry: bool = False) -> Database:
    db = Database(telemetry=telemetry)
    load_paper_tables(db)
    for ddl in SETUP.values():
        db.execute(ddl)
    return db


def _timed_setups(build: Callable, builds: int, cal: Calibration) -> tuple:
    """``(last result, [(start, end) of each round])`` over
    :data:`SETUP_ROUNDS` rounds of ``builds`` builds.

    One build of a small database takes a few hundredths of a second, too
    short to time steadily on a shared host; a round times enough of them
    to take about half a second.  A full collection before each round
    starts the garbage collector's counters from the same state, so whether
    a round pays for a collection does not depend on what the benchmark
    allocated before it."""
    times = []
    built = None
    for _ in range(SETUP_ROUNDS):
        built = None
        gc.collect()
        cal.tick()
        start = time.perf_counter()
        for _ in range(builds):
            built = None
            built = build()
        times.append((start, time.perf_counter()))
    return built, times


class InProcess:
    """A workload run against ``Database`` objects in this process.

    An op is ``(label, target, sql, strategy)``: ``target`` names one of the
    databases, ``strategy`` None means ``Database.execute`` and anything else
    ``Database.execute_with_strategy``.  ``expected[label]`` holds the
    reference rows and ``exact[label]`` whether they must match exactly
    (listing pairs) or at money precision (TPC-H against SQLite).
    """

    def __init__(self, rng, cycle: Callable, build: Callable, builds: int, corrupt: bool):
        self.rng = rng
        self.cycle = cycle
        self.build = build
        #: Builds per set-up round (see :func:`_timed_setups`).
        self.builds = builds
        self.corrupt = corrupt
        self.expected: dict = {}
        self.exact: dict = {}

    def run_op(self, dbs: dict, op) -> tuple:
        label, target, sql, strategy = op
        db = dbs[target]
        start = time.perf_counter()
        try:
            if strategy is None:
                result = db.execute(sql)
            else:
                result = db.execute_with_strategy(sql, strategy=strategy)
        except Exception as exc:  # a failed statement is a failed op
            elapsed = time.perf_counter() - start
            print(f"error: {label}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return "read", elapsed, False
        elapsed = time.perf_counter() - start
        rows = result.rows
        if self.corrupt:
            self.corrupt = False
            rows = rows[:-1]
        want = self.expected[label]
        ok = rows == want if self.exact[label] else same_rows(rows, want)
        if not ok:
            print(f"wrong result: {label}", file=sys.stderr)
        return "read", elapsed, ok

    def cycles(self, seconds: float, modes: int):
        """Yield the seeded cycles that fill ``seconds`` (see :data:`CYCLE_S`)
        when every op runs ``modes`` times, stopping early once
        :data:`MAX_STRETCH` × ``seconds`` have passed."""
        gc.collect()
        start = time.perf_counter()
        for _ in range(max(1, round(seconds / (CYCLE_S * modes)))):
            yield self.cycle(self.rng)
            if time.perf_counter() - start >= MAX_STRETCH * seconds:
                return

    def run_scaled(self, report: Report, seconds: float) -> None:
        """The untraced run.  Every statement and set-up round is scaled to
        the reference host by the calibration samples taken around it (see
        calibration.py); samples are taken between statements."""
        cal = Calibration()
        dbs, rounds = _timed_setups(lambda: self.build(False), self.builds, cal)
        timed = []
        for cycle in self.cycles(seconds, 1):
            for op in cycle:
                cal.tick()
                start = time.perf_counter()
                sample = self.run_op(dbs, op)
                timed.append((start, time.perf_counter(), sample))
        samples = []
        elapsed = 0.0
        for start, end, (kind, seconds_, ok) in timed:
            factor = cal.factor(start, end)
            samples.append((kind, seconds_ * factor, ok))
            elapsed += (end - start) * factor
        setup = [
            (end - start) * cal.factor(start, end) / self.builds
            for start, end in rounds
        ]
        count(report, samples)
        end_to_end(report, samples, elapsed, setup, self_rss_mb())
        raw = [seconds_ for _, _, (_, seconds_, _) in timed]
        report.lines.append(
            f"host calibration: {len(cal.samples)} samples, median "
            f"{1000 * REFERENCE_S / cal.factor():.3f} ms (reference host "
            f"{1000 * REFERENCE_S:g} ms); as measured: throughput "
            f"{len(timed) / sum(end - start for start, end, _ in timed):.4f} 1/s, "
            f"p50 {1000 * statistics.median(raw):.4f} ms, setup "
            f"{statistics.median((e - s) / self.builds for s, e in rounds):.4f} s"
        )

    def run(self, report: Report, seconds: float, trace: bool) -> None:
        _pin(CLIENT_CPU)
        if not trace:
            self.run_scaled(report, seconds)
            return
        dbs, observed_dbs = self.build(False), self.build(True)
        tracer = Tracer()
        run = {
            "untraced": lambda op: self.run_op(dbs, op),
            "traced": lambda op: self.run_op(dbs, op),
            "telemetry": lambda op: self.run_op(observed_dbs, op),
        }
        samples: dict = {mode: [] for mode in run}
        ops: list = []
        for cycle in self.cycles(seconds, len(run)):
            interleave(cycle, run, samples, tracer, len(ops))
            ops += cycle
        for mode_samples in samples.values():
            count(report, mode_samples)
        untraced = samples["untraced"]
        layer_metrics(report, tracer, untraced, samples["traced"], len(ops))
        telemetry_ratio(report, samples["telemetry"], untraced)
        server_placeholders(report)


def interleave(ops: list, run: dict, samples: dict, tracer, first: int) -> None:
    """Run every op once per mode, appending to ``samples[mode]``.

    The first mode to run rotates from op to op, so a drift of the host's
    speed during the run, or a warm cache left by the previous mode, falls
    on every mode alike.  Mode ``"traced"`` runs under ``tracer``.
    """
    modes = list(run)
    for offset, op in enumerate(ops):
        index = first + offset
        turn = index % len(modes)
        for mode in modes[turn:] + modes[:turn]:
            if mode == "traced":
                with tracer:
                    sample = tracer.op(index, lambda: run[mode](op))
            else:
                sample = run[mode](op)
            samples[mode].append(sample)


def telemetry_ratio(report: Report, on: list, off: list) -> None:
    report.add("telemetry.overhead_ratio", _total(on) / _total(off), "ratio")
    report.lines.append(
        f"telemetry: {_total(on):.3f} s on vs {_total(off):.3f} s off "
        f"over {len(off)} statements"
    )


def _total(samples) -> float:
    return sum(s for _, s, _ in samples)


def tpch_inputs(seed: int, sf: float) -> tuple:
    tables = generate_tpch(TpchConfig(sf=sf, seed=seed))
    return tables, reference_results(tables, TPCH_TABLES)


def tpch_cold(seed: int, seconds: float, trace: bool, corrupt: bool) -> Report:
    report = Report()
    tables, reference = tpch_inputs(seed, SF_COLD)
    report.lines.append(
        f"tpch_cold: SF {SF_COLD}, {len(tables['lineitem'])} lineitem, "
        f"{len(tables['orders'])} orders"
    )

    def cycle(rng):
        names = sorted(TPCH_QUERIES)
        rng.shuffle(names)
        return [(name, "tpch", TPCH_QUERIES[name], None) for name in names]

    work = InProcess(
        random.Random(f"{seed}:tpch_cold"),
        cycle,
        lambda telemetry: {"tpch": _tpch_db(tables, telemetry)},
        SETUP_BUILDS_COLD,
        corrupt,
    )
    work.expected.update(reference)
    work.exact.update({name: False for name in reference})
    work.run(report, seconds, trace)
    return report


def strategy_auto(
    seed: int, seconds: float, trace: bool, corrupt: bool
) -> Report:
    report = Report()
    tables, reference = tpch_inputs(seed, SF_AUTO)
    report.lines.append(
        f"strategy_auto: SF {SF_AUTO}, {len(tables['lineitem'])} lineitem, "
        f"{len(LISTING_PAIRS)} listing pairs"
    )

    def build(telemetry):
        return {"tpch": _tpch_db(tables, telemetry), "paper": _paper_db(telemetry)}

    def cycle(rng):
        ops = [
            (f"tpch:{name}", "tpch", sql, "auto")
            for name, sql in sorted(TPCH_QUERIES.items())
        ]
        ops += [
            (f"{name}:{strategy}", "paper", LISTINGS[name], strategy)
            for name, strategy in LISTING_PAIRS
        ]
        rng.shuffle(ops)
        return ops

    work = InProcess(
        random.Random(f"{seed}:strategy_auto"), cycle, build, SETUP_BUILDS_AUTO, corrupt
    )
    for name, rows in reference.items():
        work.expected[f"tpch:{name}"] = rows
        work.exact[f"tpch:{name}"] = False
    interpreter = _paper_db()
    for name, strategy in LISTING_PAIRS:
        work.expected[f"{name}:{strategy}"] = interpreter.execute(
            LISTINGS[name]
        ).rows
        work.exact[f"{name}:{strategy}"] = True
    work.run(report, seconds, trace)
    return report


# -- the server workload -------------------------------------------------------------


class ServerProcess:
    """``python -m repro.server --listings`` in a child process."""

    def __init__(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONUNBUFFERED="1")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.server", "--listings",
             "--port", "0", "--http-port", "0"],
            cwd=ROOT,
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        if SERVER_CPU is not None:
            # Before the interpreter has started a thread: all inherit it.
            os.sched_setaffinity(self.proc.pid, {SERVER_CPU})
        self.port = self.http_port = None
        self._ready = threading.Event()
        # One reader thread parses the start-up lines and then keeps
        # draining, so the child can never block on a full pipe.
        threading.Thread(target=self._read_output, daemon=True).start()
        if not self._ready.wait(60.0) or self.http_port is None:
            self.stop()
            raise RuntimeError("server did not start")

    def _read_output(self) -> None:
        for line in self.proc.stdout:
            match = re.search(r"listening on [\d.]+:(\d+)", line)
            if match:
                self.port = int(match.group(1))
            match = re.search(r"http://[\d.]+:(\d+)/metrics", line)
            if match:
                self.http_port = int(match.group(1))
                self._ready.set()
        self._ready.set()

    def connect(self):
        from repro.server.client import connect

        return connect("127.0.0.1", self.port, timeout=60.0)

    def metrics(self) -> dict:
        """The /metrics sidecar, as ``{(name, labels): value}``."""
        url = f"http://127.0.0.1:{self.http_port}/metrics"
        with urllib.request.urlopen(url, timeout=30) as response:
            text = response.read().decode("utf-8")
        values = {}
        for line in text.splitlines():
            match = re.match(r"^(\w+)(?:\{(.*)\})?\s+(\S+)$", line)
            if match:
                pairs = re.findall(r'(\w+)="([^"]*)"', match.group(2) or "")
                values[(match.group(1), tuple(sorted(pairs)))] = float(match.group(3))
        return values

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def metric_delta(before: dict, after: dict, name: str, **labels) -> float:
    """Sum of ``name`` over label sets that include ``labels``, after - before."""
    wanted = set(labels.items())

    def total(values):
        return sum(
            v for (n, ls), v in values.items() if n == name and wanted <= set(ls)
        )

    return total(after) - total(before)


class ListingStream:
    """A seeded statement stream over the paper listings.

    A quarter of the statements are writes: single-row INSERTs into Orders
    (merged into the summary), DELETEs of those rows (which mark it stale)
    and REFRESH.  15% of the reads are the roll-up the summary answers; of
    the others, half are a listing sent verbatim and half are Listing 7, 8
    or 9 with a seeded literal.
    """

    def __init__(self, rng):
        self.rng = rng
        self.verbatim = list(LISTINGS.values())
        self.templates = []
        for name, (old, new, values) in VARIANTS.items():
            text = LISTINGS[name]
            if text.count(old) != 1:
                raise ValueError(f"{name} no longer contains {old!r} once")
            self.templates.append((text.replace(old, new), values))
        self.live: list = []
        self.serial = 0
        self.stale = False

    def __next__(self) -> tuple:
        rng = self.rng
        if rng.random() < WRITE_SHARE:
            return "write", self._write()
        if rng.random() < ROLLUP_SHARE:
            return "read", ROLLUP
        if rng.random() < 0.5:
            return "read", rng.choice(self.verbatim)
        template, values = rng.choice(self.templates)
        return "read", template.format(rng.choice(values))

    def _write(self) -> str:
        rng = self.rng
        if self.stale and rng.random() < 0.3:
            self.stale = False
            return REFRESH
        if self.live and (len(self.live) >= MAX_LIVE_ROWS or rng.random() < 0.5):
            self.stale = True
            return f"DELETE FROM Orders WHERE revenue = {self.live.pop(0)}"
        self.serial += 1
        revenue = 1000 + self.serial
        self.live.append(revenue)
        prod = rng.choice(["Happy", "Acme", "Whizz"])
        cust = rng.choice(["Alice", "Bob", "Celia"])
        day = rng.randrange(1, 29)
        return (
            f"INSERT INTO Orders VALUES ('{prod}', '{cust}', "
            f"DATE '{rng.choice([2022, 2023, 2024])}-11-{day:02d}', "
            f"{revenue}, {rng.randrange(1, 10)})"
        )


def _encode(result) -> bytes:
    return dumps_line(encode_result(result))


def reference_payloads(ops: list, db) -> list:
    """Each op's expected response bytes, from one in-process caller that
    replays ``ops`` in order (read answers are reused until the next write)."""
    cache: dict = {}
    out = []
    for kind, sql in ops:
        if kind == "write":
            cache.clear()
            out.append(_encode(db.execute(sql)))
            continue
        if sql not in cache:
            cache[sql] = _encode(db.execute(sql))
        out.append(cache[sql])
    return out


class _Pipeline:
    """One protocol connection with statements in flight, answered in
    order; ``log`` holds ``(kind, sql, sent, answered, response bytes or
    None)``, times from ``time.perf_counter()``."""

    def __init__(self, port: int, stream):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.stream = stream
        self.inflight: collections.deque = collections.deque()
        self.log: list = []
        self.sent = 0
        self._buffer = b""

    def send(self) -> None:
        kind, sql = next(self.stream)
        self.sent += 1
        request = {"op": "query", "id": self.sent, "sql": sql, "params": []}
        self.inflight.append((self.sent, kind, sql, time.perf_counter()))
        self.sock.sendall(dumps_line(request))

    def receive(self) -> None:
        data = self.sock.recv(1 << 16)
        if not data:
            raise RuntimeError("server closed the connection")
        self._buffer += data
        while b"\n" in self._buffer:
            line, self._buffer = self._buffer.split(b"\n", 1)
            now = time.perf_counter()
            response = loads_line(line)
            if "id" not in response:  # the hello greeting
                continue
            op_id, kind, sql, sent = self.inflight.popleft()
            if response["id"] != op_id:
                raise RuntimeError(f"response {response['id']} for request {op_id}")
            if response.get("ok"):
                payload = dumps_line(response["result"])
            else:
                print(f"error: {response.get('error')}", file=sys.stderr)
                payload = None
            self.log.append((kind, sql, sent, now, payload))


def start_server() -> ServerProcess:
    server = ServerProcess()
    with server.connect() as conn:
        conn.query(SUMMARY_DDL)
    return server


def summary_answers_rollup(server: ServerProcess) -> bool:
    with server.connect() as conn:
        plan = conn.query("EXPLAIN " + ROLLUP).rows
    line = plan[0][0] if plan else ""
    return "answered from materialized view orders_by_prod_cust" in line


def drive(server: ServerProcess, stream: ListingStream, seconds: float, cal=None) -> tuple:
    """``(ops, latencies in seconds, response payloads, elapsed)``.

    A run sends the first ``seconds × RATE`` statements of the seeded
    stream, so every run of a seed sends the same statements whatever the
    speed of host or program (and stops sending after :data:`MAX_STRETCH`
    × ``seconds``).  It keeps :data:`WINDOW` statements in flight; the
    server runs them in the order they were sent.

    With a :class:`Calibration`, every latency and the elapsed time are
    scaled to the reference host.  The calibration samples are taken on
    the server's CPU while no statement is in flight, so the server is idle
    and no statement waits for them.
    """
    quota = max(1, round(seconds * RATE))
    pipe = _Pipeline(server.port, stream)
    _pin(CLIENT_CPU)
    spent = cal.spent if cal is not None else 0.0
    start = time.perf_counter()
    stop = start + MAX_STRETCH * seconds
    try:
        while pipe.inflight or (pipe.sent < quota and time.perf_counter() < stop):
            if cal is not None and cal.due() and pipe.sent < quota:
                while pipe.inflight:
                    pipe.receive()
                _calibrate_on_server_cpu(cal)
            while (
                len(pipe.inflight) < WINDOW
                and pipe.sent < quota
                and time.perf_counter() < stop
            ):
                pipe.send()
            pipe.receive()
    finally:
        pipe.sock.close()
    elapsed = time.perf_counter() - start
    ops = [(kind, sql) for kind, sql, _, _, _ in pipe.log]
    latencies = [end - sent for _, _, sent, end, _ in pipe.log]
    payloads = [payload for *_, payload in pipe.log]
    if cal is not None:
        elapsed -= cal.spent - spent
        raw = sum(latencies)
        latencies = [
            (end - sent) * cal.factor(sent, end) for _, _, sent, end, _ in pipe.log
        ]
        elapsed *= sum(latencies) / raw
    return ops, latencies, payloads, elapsed


def _calibrate_on_server_cpu(cal) -> None:
    _pin(SERVER_CPU)
    cal.tick()
    _pin(CLIENT_CPU)


def reference_db(telemetry: bool = False) -> Database:
    db = _paper_db(telemetry)
    db.execute(SUMMARY_DDL)
    return db


def listings_server_rw(seed, seconds, trace, corrupt) -> Report:
    report = Report()
    rounds = []
    servers = []
    # The traced run reports unscaled per-layer times (see NOTES.md).
    cal = None if trace else Calibration()
    try:
        for _ in range(1 if trace else SETUP_ROUNDS):
            if servers:
                servers.pop().stop()
            if cal is not None:
                _calibrate_on_server_cpu(cal)
            start = time.perf_counter()
            servers.append(start_server())
            rounds.append((start, time.perf_counter()))
        server = servers[0]
        summary_ok = summary_answers_rollup(server)
        before = server.metrics()
        stream = ListingStream(random.Random(f"{seed}:listings_server_rw"))
        ops, latencies, payloads, elapsed = drive(
            server, stream, seconds / 3 if trace else seconds, cal
        )
        after = server.metrics()
    finally:
        for server in servers:
            server.stop()
    if corrupt and payloads:
        payloads[0] = b"[]" + payloads[0]
    expected = reference_payloads(ops, reference_db())
    samples = [
        (kind, latency, got == want)
        for (kind, _), latency, got, want in zip(ops, latencies, payloads, expected)
    ]
    wrong = sum(not ok for _, _, ok in samples)
    if wrong:
        print(f"{wrong} results differ from the in-process replay", file=sys.stderr)
    if not summary_ok:
        print("the roll-up is not answered from the summary", file=sys.stderr)
        samples.append(("read", 0.0, False))
    errors = metric_delta(before, after, "errors_total")
    if errors:
        print(f"server errors_total grew by {errors:g}", file=sys.stderr)
    count(report, samples)
    report.lines.append(
        f"listings_server_rw: {len(samples)} statements, {WINDOW} in flight, "
        f"in {elapsed:.2f} s"
    )
    if not trace:
        setup = [(end - start) * cal.factor(start, end) for start, end in rounds]
        end_to_end(report, samples, elapsed, setup, children_rss_mb())
        report.lines.append(
            f"host calibration (server CPU): {len(cal.samples)} samples, median "
            f"{1000 * REFERENCE_S / cal.factor():.3f} ms (reference host "
            f"{1000 * REFERENCE_S:g} ms)"
        )
        writes = [s * 1000.0 for kind, s, _ in samples if kind == "write"]
        if writes:
            value, pct, _ = tail(writes)
            report.lines.append(
                f"writes: p50 {statistics.median(writes):.3f} ms, "
                f"p{pct:.1f} {value:.3f} ms over {len(writes)}"
            )
        return report
    server_trace(report, 2 * seconds / 3, ops, samples, expected, before, after)
    return report


def server_trace(report, seconds, ops, wire, expected, before, after) -> None:
    """Replay the TCP sequence in three in-process sessions over fresh
    databases, interleaved: telemetry on, the same traced, telemetry off."""
    from repro.server.session import SessionManager

    def runner(telemetry):
        session = SessionManager(reference_db(telemetry)).open_session("bench")

        def run(item):
            (kind, sql), want = item
            begin = time.perf_counter()
            try:
                result = session.execute(sql)
            except Exception as exc:
                print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
                return kind, time.perf_counter() - begin, False
            elapsed = time.perf_counter() - begin
            return kind, elapsed, _encode(result) == want

        return run

    run = {
        "untraced": runner(True),
        "traced": runner(True),
        "telemetry_off": runner(False),
    }
    samples: dict = {mode: [] for mode in run}
    tracer = Tracer()
    items = list(zip(ops, expected))
    start = time.perf_counter()
    n = 0
    while n < len(items) and time.perf_counter() - start < seconds:
        batch = items[n : n + 50]
        interleave(batch, run, samples, tracer, n)
        n += len(batch)
    for mode_samples in samples.values():
        count(report, mode_samples)
    untraced = samples["untraced"]
    layer_metrics(report, tracer, untraced, samples["traced"], n)
    telemetry_ratio(report, untraced, samples["telemetry_off"])
    wire_ms = 1000.0 * (_total(wire) / len(wire) - _total(untraced) / n)
    report.add("server.wire_ms", wire_ms, "ms")
    hits = metric_delta(before, after, "plan_cache_hits_total")
    misses = metric_delta(before, after, "plan_cache_misses_total")
    report.add("server.plan_cache_hit_ratio", hits / max(hits + misses, 1), "ratio")
    for reason in EVICTION_REASONS:
        evicted = metric_delta(before, after, "plan_cache_evictions_total", reason=reason)
        report.add(f"server.plan_cache_evictions_{reason}", evicted / len(wire), "count/op")
    mv_hits = metric_delta(before, after, "matview_hits_total")
    mv_misses = metric_delta(before, after, "matview_misses_total")
    report.add("matview.hit_ratio", mv_hits / max(mv_hits + mv_misses, 1), "ratio")
    for event, metric in (("incremental_merge", "matview.incremental_merges"),
                          ("invalidation", "matview.invalidations")):
        events = metric_delta(before, after, "matview_maintenance_total", event=event)
        report.add(metric, events / len(wire), "count/op")
    writes = [s * 1000.0 for kind, s, _ in wire if kind == "write"]
    if writes:
        add_latency(report, "write.", writes)
    else:
        report.add("write.latency_p50_ms", 0.0, "ms")
        report.add("write.latency_tail_ms", 0.0, "ms")


#: The plan-cache eviction reasons the read/write workload exercises: every
#: write to Orders evicts the cached plans over it, a REFRESH those over the
#: summary, and a plan flip its fingerprint's plans.  (The cache never fills
#: between two writes, so nothing is evicted for space, and the loop runs
#: no DDL.)
EVICTION_REASONS = ("dml", "refresh", "flip")


def server_placeholders(report: Report) -> None:
    """Server-only per-layer metrics on a workload without a server: 0."""
    for name, unit in (
        ("server.wire_ms", "ms"),
        ("server.plan_cache_hit_ratio", "ratio"),
        *((f"server.plan_cache_evictions_{reason}", "count/op")
          for reason in EVICTION_REASONS),
        ("matview.hit_ratio", "ratio"),
        ("matview.incremental_merges", "count/op"),
        ("matview.invalidations", "count/op"),
        ("write.latency_p50_ms", "ms"),
        ("write.latency_tail_ms", "ms"),
    ):
        report.add(name, 0.0, unit)


# -- per-layer metrics from a traced phase ----------------------------------------------

#: (metric, span name) whose self time per statement is reported in ms.
SELF_TIME_METRICS = (
    ("sql.parse_ms", "sql.parse"),
    ("sql.print_ms", "sql.print"),
    ("matview.rewrite_ms", "matview.rewrite"),
    ("matview.maintain_ms", "matview.maintain"),
    ("semantics.bind_ms", "semantics.bind"),
    ("plan.optimize_ms", "plan.optimize"),
    ("analysis.dataflow_ms", "analysis.dataflow"),
    ("core.expand_ms", "core.expand"),
    ("core.measure_ms", "core.measure"),
    ("engine.execute_ms", "engine.execute"),
    ("api.entry_ms", "api.execute"),
    ("api.plan_query_ms", "api.plan_query"),
    ("api.execute_planned_ms", "api.execute_planned"),
    ("server.session_overhead_ms", "server.session"),
)


#: The self-time check (see :func:`self_time_check`): at most this share of
#: the traced statements' time may lie outside every layer's spans, and the
#: traced statements may take at most this many times the untraced ones.
MAX_UNATTRIBUTED = 0.05
MAX_TRACE_OVERHEAD = 1.5


def self_time_check(report: Report, program: float, wall_u: float, wall_t: float) -> bool:
    """Check that the layers' self times account for the untraced time.

    ``wall_u`` and ``wall_t`` are the caller's own clock around each
    untraced and traced statement (not a span); ``program`` is the sum of
    every program layer's self time.  The layers cover the traced time if
    the remainder ``wall_t - program`` is at most :data:`MAX_UNATTRIBUTED`
    of it, and they then stand for the untraced time to within the tracing
    overhead ``wall_t - wall_u``, which :data:`MAX_TRACE_OVERHEAD` bounds.
    The check counts as one attempted operation, failed if it does not
    hold, so a failing check fails the run.
    """
    unattributed = wall_t - program
    covered = abs(unattributed) <= MAX_UNATTRIBUTED * wall_t
    cheap = wall_t <= MAX_TRACE_OVERHEAD * wall_u
    ok = covered and cheap
    report.attempted += 1
    report.failed += not ok
    report.lines.append(
        f"self-time check: layers sum to {program:.3f} s of {wall_t:.3f} s traced "
        f"({100 * unattributed / wall_t:.2f} % in no layer, limit "
        f"{100 * MAX_UNATTRIBUTED:g} %); untraced {wall_u:.3f} s, tracing overhead "
        f"{wall_t - wall_u:+.3f} s (ratio {wall_t / wall_u:.3f}, limit "
        f"{MAX_TRACE_OVERHEAD:g}): " + ("passed" if ok else "FAILED")
    )
    if not ok:
        print("self-time check failed", file=sys.stderr)
    return ok


def layer_metrics(report, tracer: Tracer, untraced, traced, n: int) -> None:
    self_s, total_s, calls = tracer.layer_report()
    c = tracer.counters
    for metric, span in SELF_TIME_METRICS:
        seconds = self_s.get(span, 0.0)
        if span == "api.execute":
            seconds += self_s.get("api.execute_with_strategy", 0.0)
        report.add(metric, 1000.0 * seconds / n, "ms")
    writes = calls.get("storage.write", 0)
    report.add("storage.write_ms", 1000.0 * self_s.get("storage.write", 0.0) / max(writes, 1), "ms")
    refreshes = calls.get("matview.refresh", 0)
    report.add(
        "matview.refresh_ms",
        1000.0 * total_s.get("matview.refresh", 0.0) / max(refreshes, 1),
        "ms",
    )
    report.add("engine.rows_scanned", c["rows_scanned"] / n, "count/op")
    report.add(
        "engine.rows_scanned_per_result_row",
        c["rows_scanned"] / max(c["result_rows"], 1),
        "ratio",
    )
    report.add("engine.hash_joins", c["hash_joins"] / n, "count/op")
    report.add("engine.nested_loop_joins", c["nested_loop_joins"] / n, "count/op")
    report.add("engine.subquery_executions", c["subquery_executions"] / n, "count/op")
    subqueries = c["subquery_executions"] + c["subquery_cache_hits"]
    report.add(
        "engine.subquery_cache_hit_ratio",
        c["subquery_cache_hits"] / max(subqueries, 1),
        "ratio",
    )
    report.add("core.measure_evaluations", c["measure_evaluations"] / n, "count/op")
    report.add(
        "core.measure_cache_hit_ratio",
        c["measure_cache_hits"] / max(c["measure_evaluations"], 1),
        "ratio",
    )
    report.add("plan.nodes", c["plan_nodes"] / max(c["optimized_plans"], 1), "count")
    wall_u, wall_t = _total(untraced), _total(traced)
    report.add("trace.overhead_ratio", wall_t / wall_u, "ratio")

    layers: dict = {}
    for span, seconds in self_s.items():
        layer = span.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + seconds
    program = sum(s for layer, s in layers.items() if layer != "bench")
    report.lines.append(f"traced {n} statements: untraced {wall_u:.3f} s, traced {wall_t:.3f} s")
    report.lines.append("self time by layer (share of traced wall time):")
    for layer, seconds in sorted(layers.items(), key=lambda kv: -kv[1]):
        report.lines.append(f"  {layer:<10} {seconds:9.3f} s  {100 * seconds / wall_t:6.2f} %")
    self_time_check(report, program, wall_u, wall_t)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{os.getpid()}.jsonl"
    tracer.dump(path)
    report.lines.append(f"spans written to {path.relative_to(ROOT)}")


WORKLOADS = {
    "tpch_cold": tpch_cold,
    "listings_server_rw": listings_server_rw,
    "strategy_auto": strategy_auto,
}
