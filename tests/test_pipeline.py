"""The statement pipeline: every entry point parses, plans, executes and
observes a statement the same way.

One fixed statement list (a query, a summary hit, an INSERT, a CREATE, a
parse error and a bind error) runs through each public entry point on a
fresh database.  Results must be byte-identical, each statement must leave
exactly one journal entry (canonical SQL, same strategy, same outcome),
and each failure exactly one ``errors_total`` increment.
"""

from __future__ import annotations

import pytest

import repro.introspect
from repro.api import Database
from repro.errors import InternalError, SqlError
from repro.history import JournalWriter, read_journal
from repro.server import SessionManager
from repro.server.protocol import dumps_line, encode_result
from repro.sql import parse_statement
from repro.sql.printer import to_sql
from repro.workloads.paper_data import load_paper_tables

SUMMARY_DDL = (
    "CREATE MATERIALIZED VIEW eo_by_prod AS "
    "SELECT prodName, AGGREGATE(rev) AS rev FROM eo GROUP BY prodName"
)

STATEMENTS = [
    (
        "query",
        "select custName, sum(revenue) from Orders "
        "group by custName order by custName",
    ),
    (
        "summary_hit",
        "SELECT prodName, AGGREGATE(rev) AS r FROM eo "
        "GROUP BY prodName ORDER BY prodName",
    ),
    (
        "insert",
        "INSERT INTO Orders (prodName, custName, revenue) VALUES ('Z', 'Bob', 7)",
    ),
    ("create", "create table extra (x integer)"),
    ("parse_error", "SELEC 1"),
    ("bind_error", "SELECT nope FROM Orders"),
]

FAILURES = {"parse_error", "bind_error"}


def _database(**kwargs) -> Database:
    db = Database(**kwargs)
    load_paper_tables(db)
    db.execute(
        "CREATE VIEW eo AS SELECT prodName, custName, "
        "SUM(revenue) AS MEASURE rev FROM Orders"
    )
    db.execute(SUMMARY_DDL)
    return db


def _via_execute(db, sql):
    return db.execute(sql)


def _via_script(db, sql):
    (result,) = db.execute_script(sql)
    return result


def _via_strategy(db, sql):
    return db.execute_with_strategy(sql, strategy="interpreter")


def _via_session(db, sql):
    return SessionManager(db).open_session().execute(sql)


def _via_prepared(db, sql):
    # A statement that fails to parse or plan fails at prepare, which
    # observes it the same way.
    session = SessionManager(db).open_session()
    return session.execute_prepared(session.prepare(sql))


ENTRY_POINTS = {
    "execute": (_via_execute, {}),
    "execute+telemetry": (_via_execute, {"telemetry": True}),
    "execute+profile": (_via_execute, {"profile": True}),
    "execute+recorder": (_via_execute, {"record": True}),
    "execute_script": (_via_script, {"record": True, "telemetry": True}),
    "session": (_via_session, {"record": True, "telemetry": True}),
    "session_prepared": (_via_prepared, {"record": True, "telemetry": True}),
    "execute_with_strategy": (_via_strategy, {"record": True, "telemetry": True}),
}


def _run(entry: str, tmp_path):
    run, options = ENTRY_POINTS[entry]
    db = _database(telemetry=options.get("telemetry", False),
                   profile=options.get("profile", False))
    path = str(tmp_path / f"{entry}.jsonl")
    if options.get("record"):
        db.recorder = JournalWriter(path)
    outcomes = []
    for _, sql in STATEMENTS:
        try:
            outcomes.append(dumps_line(encode_result(run(db, sql))))
        except SqlError as exc:
            outcomes.append(type(exc).__name__)
    entries = None
    if db.recorder is not None:
        db.recorder.close()
        _, entries = read_journal(path)
    return db, outcomes, entries


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    return _run("execute", tmp_path_factory.mktemp("baseline"))


@pytest.mark.parametrize("entry", list(ENTRY_POINTS))
def test_entry_points_agree(entry, baseline, tmp_path):
    _, expected, _ = baseline
    db, outcomes, entries = _run(entry, tmp_path)
    assert outcomes == expected
    assert [isinstance(o, str) for o in outcomes] == [
        name in FAILURES for name, _ in STATEMENTS
    ]
    if db.telemetry is not None:
        assert db.telemetry.errors_total.total() == len(FAILURES)
    if entries is None:
        return
    assert len(entries) == len(STATEMENTS)
    for (name, sql), entry_ in zip(STATEMENTS, entries):
        canonical = sql if name == "parse_error" else to_sql(parse_statement(sql))
        assert entry_.sql == canonical, name
        assert entry_.outcome == ("error" if name in FAILURES else "ok"), name
    strategies = [e.strategy for e in entries]
    assert strategies == ["interpreter", "summary", None, None, None, None]


# -- the top-level guard -------------------------------------------------------

DEEP = "SELECT " + "+".join(["1"] * 300)


@pytest.mark.parametrize("telemetry", [False, True])
def test_deep_expression_raises_sql_error(telemetry):
    db = Database(telemetry=telemetry)
    with pytest.raises(SqlError) as excinfo:
        db.execute(DEEP)
    assert isinstance(excinfo.value, InternalError)
    # Named by its (canonical, when observed) text, then the cause.
    assert str(excinfo.value).startswith("internal error in 'SELECT ")
    assert "RecursionError" in str(excinfo.value)
    if telemetry:
        assert db.telemetry.errors_total.value(**{"class": "InternalError"}) == 1


def test_deep_expression_through_session_and_strategy(tmp_path):
    db = Database(telemetry=True)
    path = str(tmp_path / "deep.jsonl")
    db.recorder = JournalWriter(path)
    session = SessionManager(db).open_session()
    with pytest.raises(InternalError):
        session.execute(DEEP)
    with pytest.raises(InternalError):
        db.execute_with_strategy(DEEP, strategy="subquery")
    db.recorder.close()
    _, entries = read_journal(path)
    assert [e.outcome for e in entries] == ["error", "error"]
    assert db.telemetry.errors_total.value(**{"class": "InternalError"}) == 2


def test_strategy_on_non_query_is_counted(tmp_path):
    db = Database(telemetry=True)
    db.recorder = JournalWriter(str(tmp_path / "j.jsonl"))
    db.execute("CREATE TABLE t (x INTEGER)")
    with pytest.raises(SqlError, match="requires a query"):
        db.execute_with_strategy("INSERT INTO t VALUES (1)", strategy="subquery")
    assert db.telemetry.errors_total.total() == 1
    assert db.execute("SELECT COUNT(*) FROM t").scalar() == 0


# -- the bare path -------------------------------------------------------------


def test_bare_query_computes_no_observation(monkeypatch):
    db = _database()

    def boom(*args, **kwargs):
        raise AssertionError("computed on the bare path")

    monkeypatch.setattr(repro.introspect, "fingerprint_statement", boom)
    monkeypatch.setattr(repro.introspect, "plan_shape", boom)
    for name, sql in STATEMENTS:
        if name in ("query", "summary_hit"):
            assert db.execute(sql).rows
