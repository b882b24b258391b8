"""SQLite reference results for the canonical TPC-H measure queries.

Each query of ``repro.workloads.tpch.TPCH_QUERIES`` is written out here as
the plain SQL it denotes under the paper's expansion semantics and run on
the standard library's sqlite3 over the same generated rows.  The engine's
answers are compared with these at the differential battery's money
precision: six significant digits (``math.isclose`` with ``rel_tol=1e-6``,
so a rounding boundary cannot split two equal sums).
"""

from __future__ import annotations

import math
import sqlite3

_REV = "SUM(l.l_extendedprice * (1 - l.l_discount))"
_SALES_FROM = """
    FROM lineitem AS l
    JOIN orders AS o ON l.l_orderkey = o.o_orderkey
    JOIN partsupp AS ps
      ON l.l_partkey = ps.ps_partkey AND l.l_suppkey = ps.ps_suppkey
    JOIN customer AS c ON o.o_custkey = c.c_custkey
    JOIN nation AS n ON c.c_nationkey = n.n_nationkey
    JOIN region AS r ON n.n_regionkey = r.r_regionkey
"""
_ORDERS_FROM = """
    FROM orders AS o
    JOIN customer AS c ON o.o_custkey = c.c_custkey
    JOIN nation AS n ON c.c_nationkey = n.n_nationkey
    JOIN region AS r ON n.n_regionkey = r.r_regionkey
"""
_YEAR = "CAST(strftime('%Y', o.o_orderdate) AS INTEGER)"

ORACLES: dict[str, str] = {
    "revenue_by_region": f"""
        SELECT r.r_name, {_REV} {_SALES_FROM}
        GROUP BY r.r_name ORDER BY r.r_name""",
    "revenue_by_region_year": f"""
        SELECT r.r_name, {_YEAR} AS y, {_REV}, SUM(l.l_quantity) {_SALES_FROM}
        GROUP BY r.r_name, y ORDER BY r.r_name, y""",
    "margin_by_returnflag": f"""
        SELECT l.l_returnflag,
               ({_REV} - SUM(ps.ps_supplycost * l.l_quantity)) / {_REV},
               AVG(l.l_discount) {_SALES_FROM}
        GROUP BY l.l_returnflag ORDER BY l.l_returnflag""",
    "orders_by_year": f"""
        SELECT {_YEAR} AS y, COUNT(*) {_ORDERS_FROM}
        GROUP BY y ORDER BY y""",
    "revenue_share_by_region": f"""
        SELECT r.r_name, {_REV}, {_REV} / (SELECT {_REV} {_SALES_FROM})
        {_SALES_FROM}
        GROUP BY r.r_name ORDER BY r.r_name""",
    "revenue_yoy_by_year": f"""
        SELECT cur.y, cur.revenue, prev.revenue
        FROM (SELECT {_YEAR} AS y, {_REV} AS revenue {_SALES_FROM}
              GROUP BY y) AS cur
        LEFT JOIN (SELECT {_YEAR} AS y, {_REV} AS revenue {_SALES_FROM}
                   GROUP BY y) AS prev ON prev.y = cur.y - 1
        ORDER BY cur.y""",
    "visible_orders_by_region": f"""
        SELECT r.r_name, COUNT(*),
               (SELECT COUNT(*)
                FROM orders AS o2
                JOIN customer AS c2 ON o2.o_custkey = c2.c_custkey
                JOIN nation AS n2 ON c2.c_nationkey = n2.n_nationkey
                WHERE n2.n_regionkey = r.r_regionkey)
        {_ORDERS_FROM}
        WHERE c.c_mktsegment <> 'MACHINERY'
        GROUP BY r.r_name, r.r_regionkey ORDER BY r.r_name""",
}

def reference_results(tables: dict, table_columns: dict) -> dict:
    """Run every oracle over ``tables``; ``{query name: [row tuples]}``."""
    connection = sqlite3.connect(":memory:")
    try:
        for name, columns in table_columns.items():
            decls = ", ".join(
                f"{col} "
                + {"INTEGER": "INTEGER", "DOUBLE": "REAL"}.get(type_, "TEXT")
                for col, type_ in columns
            )
            connection.execute(f"CREATE TABLE {name} ({decls})")
            marks = ", ".join("?" for _ in columns)
            connection.executemany(
                f"INSERT INTO {name} VALUES ({marks})",
                [tuple(_sqlite_value(v) for v in row) for row in tables[name]],
            )
        return {
            name: [tuple(row) for row in connection.execute(sql).fetchall()]
            for name, sql in ORACLES.items()
        }
    finally:
        connection.close()


def _sqlite_value(value):
    return value.isoformat() if hasattr(value, "isoformat") else value


def _same_cell(got, want) -> bool:
    if isinstance(got, float) or isinstance(want, float):
        if got is None or want is None:
            return got is want
        return math.isclose(got, want, rel_tol=1e-6, abs_tol=1e-9)
    return got == want


def same_rows(got: list, want: list) -> bool:
    """Row-by-row, cell-by-cell agreement at money precision."""
    return len(got) == len(want) and all(
        len(g) == len(w) and all(_same_cell(a, b) for a, b in zip(g, w))
        for g, w in zip(got, want)
    )
