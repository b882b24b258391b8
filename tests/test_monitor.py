"""The execution monitor under every configuration that builds one.

A statement gets an :class:`~repro.engine.progress.ExecutionMonitor` when
a profiler, progress tracking or a cancel event is present, and none when
bare.  Each configuration must return the same rows; where a profile and
live progress both exist they read the same operator records; a cancel
lands wherever a cancel event is attached; and the memory budget counts
bytes held, not bytes ever produced.
"""

from __future__ import annotations

import pytest

from repro.api import Database
from repro.errors import QueryCancelled, ResourceExhausted
from repro.server.session import SessionManager
from repro.sql import parse_query
from repro.workloads.listings import LISTING4, LISTING12_Q1, LISTING12_Q4, SETUP
from repro.workloads.paper_data import load_paper_tables
from repro.workloads.tpch import TPCH_QUERIES, tpch_measure_database

CONFIGS = {
    "bare": {},
    "profile": {"profile": True},
    "progress": {"track_progress": True},
    "telemetry": {"telemetry": True},
    "budget": {"memory_limit_bytes": 64 << 20},
    # A server session over Database(): the cancel event only.
    "session": {},
}

QUERIES = {
    "listing4": LISTING4,
    "listing12_q4": LISTING12_Q4,
    "correlated_subquery": LISTING12_Q1,
    "revenue_by_region": TPCH_QUERIES["revenue_by_region"],
}


def _paper_database(**kwargs) -> Database:
    db = Database(**kwargs)
    load_paper_tables(db)
    db.execute(SETUP["EnhancedOrders"])
    return db


def _database(config: str, query: str) -> Database:
    if query == "revenue_by_region":
        return tpch_measure_database(0.001, **CONFIGS[config])
    return _paper_database(**CONFIGS[config])


def _run(db: Database, config: str, sql: str):
    if config == "session":
        return SessionManager(db).open_session().execute(sql).rows
    return db.query(sql).rows


class _CancelAfter:
    """A cancel event that reports itself set after ``checks`` checks, so
    the cancel lands mid-statement rather than at its first operator."""

    def __init__(self, checks: int):
        self.checks = checks

    def is_set(self) -> bool:
        self.checks -= 1
        return self.checks < 0

    def set(self) -> None:
        self.checks = 0

    def clear(self) -> None:
        pass


@pytest.fixture(scope="module")
def expected() -> dict:
    """Each query's rows on a bare Database."""
    return {
        name: _database("bare", name).query(sql).rows
        for name, sql in QUERIES.items()
    }


@pytest.mark.parametrize("query", sorted(QUERIES))
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_every_configuration_returns_the_same_rows(config, query, expected):
    db = _database(config, query)
    assert _run(db, config, QUERIES[query]) == expected[query]
    monitor = db.last_stats.monitor
    assert (monitor is None) == (config == "bare")
    assert len(db.running) == 0


@pytest.mark.parametrize("query", sorted(QUERIES))
def test_profile_and_progress_read_the_same_records(query):
    db = _database("telemetry", query)
    db.profile_enabled = True
    db.query(QUERIES[query])
    tree = db.last_profile().operator_tree
    nodes = list(_walk(tree))
    progress = db.last_stats.monitor.operator_rows()
    # attach_plan registers the plan in the pre-order the tree is frozen
    # in; operators reached only from expressions come after.
    assert [(n["label"], n["calls"], n["rows_out"]) for n in nodes] == [
        (label, calls, rows_out)
        for _, _, label, _, _, rows_out, calls, _ in progress[: len(nodes)]
    ]
    assert tree["rows_out"] == db.last_profile().result_rows


def _walk(node):
    yield node
    for child in node.get("children", ()):
        yield from _walk(child)


@pytest.mark.parametrize("checks", [0, 5])
@pytest.mark.parametrize("config", sorted(CONFIGS))
def test_cancel_lands_under_every_configuration(config, checks):
    db = _paper_database(**CONFIGS[config])
    sql = LISTING12_Q1
    if config == "session":
        session = SessionManager(db).open_session()
        session.cancel_event = _CancelAfter(checks)
        with pytest.raises(QueryCancelled):
            session.execute(sql)
    else:
        planned = db.plan_query(parse_query(sql), sql=sql)
        with pytest.raises(QueryCancelled):
            db.execute_planned(planned, cancel_event=_CancelAfter(checks))
    # The aborted statement left nothing behind.
    assert len(db.running) == 0
    assert _run(db, config, sql) == _paper_database().query(sql).rows


# -- the memory budget counts bytes held --------------------------------------


def test_tpch_measure_query_fits_a_64_mib_budget():
    # Every operator's output used to stay accounted after its consumer
    # finished: this query reported ~68 MB against a ~6 MB heap peak.
    db = tpch_measure_database(0.001, memory_limit_bytes=64 << 20)
    sql = TPCH_QUERIES["revenue_by_region"]
    assert db.query(sql).rows == tpch_measure_database(0.001).query(sql).rows
    assert 0 < db.last_stats.monitor.memory_bytes < 64 << 20


def test_correlated_subquery_fits_a_20_mb_budget():
    # 1,500 executions of the subquery's scan used to add up to ~504 MB.
    db = Database(memory_limit_bytes=20_000_000)
    db.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
    for start in range(0, 1500, 500):
        values = ", ".join(f"({i}, {i})" for i in range(start, start + 500))
        db.execute(f"INSERT INTO t VALUES {values}")
    rows = db.query(
        "SELECT k, (SELECT COUNT(*) FROM t t2 WHERE t2.v < t1.k) FROM t t1"
    ).rows
    assert len(rows) == 1500
    assert rows[:3] == [(0, 0), (1, 1), (2, 2)] and rows[-1] == (1499, 1499)


def test_unmemoized_subquery_results_are_released():
    # Without the memo nothing keeps a subquery's rows once its IN test is
    # done; they used to stay counted (~12 MB here against an ~80 KB heap).
    db = Database(memory_limit_bytes=5_000_000, cache=False)
    db.execute("CREATE TABLE t (k INTEGER, v INTEGER)")
    db.execute(
        "INSERT INTO t VALUES " + ", ".join(f"({i}, {i % 7})" for i in range(400))
    )
    rows = db.query(
        "SELECT k FROM t t1 WHERE t1.v IN "
        "(SELECT t2.v FROM t t2 WHERE t2.k <> t1.k)"
    ).rows
    assert len(rows) == 400
    assert db.last_stats.monitor.memory_bytes < 100_000


def test_budget_still_breaks_a_runaway_join():
    db = Database(memory_limit_bytes=50_000)
    db.execute("CREATE TABLE t (x INTEGER)")
    db.execute("INSERT INTO t VALUES " + ", ".join(f"({i})" for i in range(300)))
    with pytest.raises(ResourceExhausted) as excinfo:
        db.query("SELECT a.x FROM t AS a JOIN t AS b ON a.x >= b.x")
    assert "memory budget exhausted in Join" in str(excinfo.value)
