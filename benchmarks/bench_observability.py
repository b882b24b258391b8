"""F09: progress tracking is zero-cost when off — paper listings with/without.

Live-query observability (`repro_running_queries`, memory budgets) rides the
executor's execution monitor, fed at operator boundaries and the 256-row
checkpoints.  With tracking off no monitor is built and the hot path pays
one ``is None`` test, so the per-row cost must be indistinguishable from a
build that never had the feature.  This module is
the proof: every paper listing is timed twice — ``Database()`` (tracking
off) and ``Database(track_progress=True)`` (ticks + memory accounting on) —
and the pair lands in the ``observability`` section of ``BENCH_<date>.json``
so the CI gate (``benchmarks/report.py --compare``) catches any future PR
that makes the "off" side pay for the feature.

The listings are deliberately the *smallest* workload in the suite: at
paper scale (5 orders) the fixed per-query overhead of a progress-state
registration is as visible as it will ever be.  TPC-H scale hides it;
this does not.

Run standalone for a smoke check (used by CI)::

    python -m benchmarks.bench_observability --quick
"""

from __future__ import annotations

import sys
import time

from repro import Database
from repro.workloads.listings import SETUP, all_listing_sql
from repro.workloads.paper_data import load_paper_tables


def build_database(*, track_progress: bool) -> Database:
    db = Database(track_progress=track_progress)
    load_paper_tables(db)
    for ddl in SETUP.values():
        db.execute(ddl)
    return db


def _best_of(thunk, repeats: int) -> float:
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        thunk()
        best = min(best, time.perf_counter() - start)
    return best


def measure_observability(*, repeats: int = 3) -> dict:
    """Time every paper listing with tracking off and on.

    Returns the snapshot's ``observability`` section::

        {"repeats": N,
         "queries": {name: {"rows": n, "off_ms": ..., "on_ms": ...}},
         "total_off_ms": ..., "total_on_ms": ..., "overhead_pct": ...}

    ``overhead_pct`` is informational (micro-listing jitter makes a
    per-entry ratio meaningless); the regression gate works on the
    flattened ``<name>:off`` / ``<name>:on`` wall times instead, so a
    slowdown on the *off* side fails CI like any other perf regression.
    """
    off_db = build_database(track_progress=False)
    on_db = build_database(track_progress=True)
    listings = all_listing_sql(off_db)

    queries: dict[str, dict] = {}
    total_off = 0.0
    total_on = 0.0
    for name, sql in listings.items():
        rows = len(off_db.execute(sql).rows)
        tracked_rows = len(on_db.execute(sql).rows)
        assert tracked_rows == rows, (
            f"{name}: tracking changed the result ({rows} -> {tracked_rows})"
        )
        off_s = _best_of(lambda: off_db.execute(sql), repeats)
        on_s = _best_of(lambda: on_db.execute(sql), repeats)
        total_off += off_s
        total_on += on_s
        queries[name] = {
            "rows": rows,
            "off_ms": round(off_s * 1000.0, 3),
            "on_ms": round(on_s * 1000.0, 3),
        }
    return {
        "repeats": repeats,
        "queries": queries,
        "total_off_ms": round(total_off * 1000.0, 3),
        "total_on_ms": round(total_on * 1000.0, 3),
        "overhead_pct": round(
            (total_on - total_off) / total_off * 100.0, 1
        )
        if total_off
        else 0.0,
    }


# -- pytest-benchmark series --------------------------------------------------


def test_tracking_off_is_default():
    assert Database().progress_enabled() is False


def test_results_identical_under_tracking():
    """Tracking must never change what a query returns."""
    off_db = build_database(track_progress=False)
    on_db = build_database(track_progress=True)
    for name, sql in all_listing_sql(off_db).items():
        assert on_db.execute(sql).rows == off_db.execute(sql).rows, name


def test_listing1_tracking_off(benchmark):
    db = build_database(track_progress=False)
    sql = all_listing_sql(db)["listing1"]
    result = benchmark(db.execute, sql)
    assert len(result.rows) == 3


def test_listing1_tracking_on(benchmark):
    db = build_database(track_progress=True)
    sql = all_listing_sql(db)["listing1"]
    result = benchmark(db.execute, sql)
    assert len(result.rows) == 3
    assert db.progress_enabled()


def test_rollup_visible_tracking_off(benchmark):
    db = build_database(track_progress=False)
    sql = all_listing_sql(db)["listing8"]
    benchmark(db.execute, sql)


def test_rollup_visible_tracking_on(benchmark):
    db = build_database(track_progress=True)
    sql = all_listing_sql(db)["listing8"]
    benchmark(db.execute, sql)


def main(argv: list[str] | None = None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        prog="benchmarks.bench_observability",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "--quick", action="store_true", help="repeats=1 (CI smoke)"
    )
    parser.add_argument(
        "--repeats", type=int, default=3, help="best-of-N (default 3)"
    )
    args = parser.parse_args(argv)
    section = measure_observability(repeats=1 if args.quick else args.repeats)
    width = max(len(name) for name in section["queries"])
    print(f"{'listing':<{width}}  {'off ms':>8}  {'on ms':>8}")
    for name, entry in section["queries"].items():
        print(
            f"{name:<{width}}  {entry['off_ms']:>8.3f}  {entry['on_ms']:>8.3f}"
        )
    print(
        f"total off {section['total_off_ms']}ms, on {section['total_on_ms']}ms "
        f"({section['overhead_pct']:+.1f}%)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
