"""Inline and window rewrite strategies (paper sections 5.1 and 6.4)."""

from __future__ import annotations

import pytest

from repro import Database, UnsupportedError


@pytest.fixture
def sdb(paper_db: Database) -> Database:
    paper_db.execute(
        """CREATE VIEW eo AS
           SELECT orderDate, prodName,
                  SUM(revenue) AS MEASURE rev,
                  (SUM(revenue) - SUM(cost)) / SUM(revenue) AS MEASURE margin
           FROM Orders"""
    )
    return paper_db


def test_inline_simple_group_by(sdb):
    sql = "SELECT prodName, AGGREGATE(margin) AS m FROM eo GROUP BY prodName ORDER BY prodName"
    inlined = sdb.expand(sql, strategy="inline")
    # The inline rewrite reads the source directly: no subqueries at all.
    assert "(SELECT" not in inlined
    assert "FROM Orders" in inlined
    assert sdb.execute(inlined).rows == sdb.execute(sql).rows


def test_inline_with_where(sdb):
    sql = """SELECT prodName, AGGREGATE(rev) AS r FROM eo
             WHERE prodName <> 'Acme' GROUP BY prodName ORDER BY prodName"""
    inlined = sdb.expand(sql, strategy="inline")
    assert sdb.execute(inlined).rows == sdb.execute(sql).rows


def test_inline_multiple_measures(sdb):
    sql = """SELECT prodName, AGGREGATE(rev) AS r, AGGREGATE(margin) AS m
             FROM eo GROUP BY prodName ORDER BY prodName"""
    assert sdb.execute(sdb.expand(sql, strategy="inline")).rows == sdb.execute(sql).rows


def test_inline_rejects_at_modifiers(sdb):
    with pytest.raises(UnsupportedError):
        sdb.expand(
            "SELECT prodName, rev AT (ALL) FROM eo GROUP BY prodName",
            strategy="inline",
        )


def test_inline_rejects_bare_measures(sdb):
    # Bare uses ignore the WHERE clause; inlining would not.
    with pytest.raises(UnsupportedError):
        sdb.expand(
            "SELECT prodName, rev FROM eo WHERE prodName <> 'Acme' GROUP BY prodName",
            strategy="inline",
        )


def test_inline_rejects_joins(sdb):
    with pytest.raises(UnsupportedError):
        sdb.expand(
            """SELECT o.prodName, AGGREGATE(o.rev) FROM eo AS o
               JOIN Customers AS c ON 1 = 1 GROUP BY o.prodName""",
            strategy="inline",
        )


def test_inline_rejects_non_aggregate(sdb):
    with pytest.raises(UnsupportedError):
        sdb.expand("SELECT orderDate FROM eo", strategy="inline")


def test_window_rewrite_listing12(sdb):
    sql = """SELECT o.prodName, o.orderDate FROM
             (SELECT prodName, orderDate, revenue, AVG(revenue) AS MEASURE avgRevenue
              FROM Orders) AS o
             WHERE o.revenue > o.avgRevenue AT (WHERE prodName = o.prodName)
             ORDER BY 1, 2"""
    windowed = sdb.expand(sql, strategy="window")
    assert "OVER (PARTITION BY" in windowed
    assert sdb.execute(windowed).rows == sdb.execute(sql).rows


def test_window_rewrite_bare_measure_partitions_by_all_dims(paper_db):
    paper_db.execute(
        """CREATE VIEW rm AS
           SELECT prodName, SUM(revenue) AS MEASURE r FROM Orders"""
    )
    sql = "SELECT prodName, r FROM rm ORDER BY prodName"
    windowed = paper_db.expand(sql, strategy="window")
    assert paper_db.execute(windowed).rows == paper_db.execute(sql).rows


def test_window_rejects_aggregate_queries(sdb):
    with pytest.raises(UnsupportedError):
        sdb.expand(
            "SELECT prodName, AGGREGATE(rev) FROM eo GROUP BY prodName",
            strategy="window",
        )


def test_window_rejects_non_equality_at_where(sdb):
    with pytest.raises(UnsupportedError):
        sdb.expand(
            """SELECT orderDate FROM eo
               WHERE rev AT (WHERE prodName <> eo.prodName) > 1""",
            strategy="window",
        )


def test_window_answers_all_modifier_at_row_grain(sdb):
    """``rev AT (ALL)`` at row grain is an uncorrelated subquery: a window
    over the whole input."""
    sql = "SELECT orderDate, prodName, rev AT (ALL) AS total FROM eo"
    windowed = sdb.expand(sql, strategy="window")
    assert "OVER ()" in windowed
    expected = sorted(sdb.execute(sql).rows)
    assert sorted(sdb.execute(windowed).rows) == expected
    assert sorted(sdb.execute(sdb.expand(sql)).rows) == expected


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT prodName, orderDate, r FROM big",
        "SELECT prodName, orderDate, r AT (WHERE prodName = big.prodName) FROM big",
    ],
)
def test_window_filtered_source_view(paper_db, sql):
    """The view's WHERE filters the window's derived table, like the rows
    the correlated subquery reads."""
    paper_db.execute(
        """CREATE VIEW big AS
           SELECT prodName, orderDate, SUM(revenue) AS MEASURE r
           FROM Orders WHERE revenue > 4"""
    )
    windowed = paper_db.expand(sql, strategy="window")
    assert "OVER (PARTITION BY" in windowed
    expected = sorted(paper_db.execute(sql).rows)
    assert sorted(paper_db.execute(windowed).rows) == expected
    assert sorted(paper_db.execute(paper_db.expand(sql)).rows) == expected


@pytest.mark.parametrize(
    "sql",
    [
        "SELECT prodName, y, r FROM ey",
        "SELECT prodName, y, r AT (WHERE y = ey.y) FROM ey",
    ],
)
def test_window_partitions_by_computed_dimension(paper_db, sql):
    paper_db.execute(
        """CREATE VIEW ey AS
           SELECT prodName, YEAR(orderDate) AS y, SUM(revenue) AS MEASURE r
           FROM Orders"""
    )
    windowed = paper_db.expand(sql, strategy="window")
    assert "YEAR(orderDate))" in windowed  # the end of PARTITION BY
    assert sorted(paper_db.execute(windowed).rows) == sorted(
        paper_db.execute(sql).rows
    )


def test_unknown_strategy_rejected(sdb):
    with pytest.raises(UnsupportedError):
        sdb.expand("SELECT 1", strategy="quantum")


def test_auto_prefers_inline(sdb):
    sql = "SELECT prodName, AGGREGATE(margin) AS m FROM eo GROUP BY prodName ORDER BY prodName"
    auto = sdb.expand(sql, strategy="auto")
    assert auto == sdb.expand(sql, strategy="inline")
    assert sdb.execute(auto).rows == sdb.execute(sql).rows


def test_auto_falls_back_to_window(sdb):
    # A row-grain AT query: inline refuses (no GROUP BY aggregate shape),
    # window handles it.
    sql = """SELECT o.prodName, o.orderDate FROM
             (SELECT prodName, orderDate, revenue, AVG(revenue) AS MEASURE avgRevenue
              FROM Orders) AS o
             WHERE o.revenue > o.avgRevenue AT (WHERE prodName = o.prodName)
             ORDER BY 1, 2"""
    auto = sdb.expand(sql, strategy="auto")
    assert auto == sdb.expand(sql, strategy="window")
    assert sdb.execute(auto).rows == sdb.execute(sql).rows


def test_auto_falls_back_to_subquery(sdb):
    # AT (ALL) in an aggregate query: both specialized strategies refuse,
    # the general correlated-subquery expansion handles it.
    sql = """SELECT prodName, rev AT (ALL) AS total FROM eo
             GROUP BY prodName ORDER BY prodName"""
    with pytest.raises(UnsupportedError):
        sdb.expand(sql, strategy="inline")
    with pytest.raises(UnsupportedError):
        sdb.expand(sql, strategy="window")
    auto = sdb.expand(sql, strategy="auto")
    assert auto == sdb.expand(sql, strategy="subquery")
    assert sdb.execute(auto).rows == sdb.execute(sql).rows


def test_multi_agg_formula_becomes_multiple_window_calls(sdb):
    """(SUM(revenue)-SUM(cost))/SUM(revenue) needs each aggregate windowed."""
    sql = """SELECT prodName, margin AT (WHERE prodName = eo.prodName) AS m
             FROM eo ORDER BY prodName, orderDate"""
    windowed = sdb.expand(sql, strategy="window")
    assert windowed.count("OVER") >= 2
    assert sdb.execute(windowed).rows == sdb.execute(sql).rows


def null_db(*, cache: bool = True) -> Database:
    db = Database(cache=cache)
    db.create_table_from_rows(
        "o",
        [("p", "VARCHAR"), ("r", "INTEGER")],
        [("a", 1), ("a", 2), (None, 5), (None, 7)],
    )
    db.execute(
        """CREATE VIEW m AS
           SELECT p, r, SUM(r) AS MEASURE s, COUNT(r) AS MEASURE n FROM o"""
    )
    return db


#: NULL keys under both correlations: ``=`` (AT WHERE) matches nothing for a
#: NULL outer key, ``IS NOT DISTINCT FROM`` (a bare row-grain use) matches
#: the NULL-keyed rows.
NULL_KEY_CASES = {
    "eq_sum": (
        "SELECT p, r, s AT (WHERE p = m.p) AS v FROM m",
        [("a", 1, 3), ("a", 2, 3), (None, 5, None), (None, 7, None)],
    ),
    "eq_count": (
        "SELECT p, r, n AT (WHERE p = m.p) AS v FROM m",
        [("a", 1, 2), ("a", 2, 2), (None, 5, 0), (None, 7, 0)],
    ),
    "eq_formula": (
        "SELECT p, r, s AT (WHERE p = m.p) + n AT (WHERE p = m.p) AS v FROM m",
        [("a", 1, 5), ("a", 2, 5), (None, 5, None), (None, 7, None)],
    ),
    "indf_sum": (
        "SELECT p, s AT (ALL r) AS v FROM m",
        [("a", 3), ("a", 3), (None, 12), (None, 12)],
    ),
    "indf_count": (
        "SELECT p, r, n AS v FROM m",
        [("a", 1, 1), ("a", 2, 1), (None, 5, 1), (None, 7, 1)],
    ),
}
NULL_KEY_PATHS = ("cache", "no_cache", "subquery", "window", "winmagic", "auto")


@pytest.mark.parametrize("path", NULL_KEY_PATHS)
@pytest.mark.parametrize("case", sorted(NULL_KEY_CASES))
def test_null_keys_agree_on_every_path(case, path):
    sql, expected = NULL_KEY_CASES[case]
    db = null_db(cache=path != "no_cache")
    if path not in ("cache", "no_cache"):
        sql = db.expand(sql, strategy=path)
    key = lambda row: tuple((v is None, v) for v in row)  # noqa: E731
    assert sorted(db.execute(sql).rows, key=key) == sorted(expected, key=key)


def test_auto_expands_once(sdb, monkeypatch):
    """auto runs the subquery expander once and hands WinMagic its result."""
    from repro.core import expansion

    expanders: list = []
    original = expansion.Expander.expand_query

    def counting(self, query):
        if all(e is not self for e in expanders):
            expanders.append(self)
        return original(self, query)

    monkeypatch.setattr(expansion.Expander, "expand_query", counting)
    rewritten = "SELECT prodName, rev AT (WHERE prodName = eo.prodName) FROM eo"
    refused = [
        "SELECT prodName, rev AT (ALL) AS total FROM eo GROUP BY prodName",
        "SELECT orderDate FROM eo WHERE rev AT (WHERE prodName <> eo.prodName) > 1",
    ]
    for sql in [rewritten] + refused:
        expanders.clear()
        auto = sdb.expand(sql, strategy="auto")
        assert len(expanders) == 1, sql
        if sql in refused:
            assert auto == sdb.expand(sql, strategy="subquery")
