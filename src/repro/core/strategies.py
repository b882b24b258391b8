"""The inline measure-rewrite strategy (paper section 6.4).

The general correlated-subquery expansion (:mod:`repro.core.expansion`) is,
as the paper notes, "general-purpose but not very efficient".  "In simple
cases (such as a query with GROUP BY and no JOIN) it may be valid to inline
the measure definition": :func:`inline_expand` turns a plain aggregate query
over one measure table, where every measure use carries the default VISIBLE
context, into an ordinary GROUP BY over the source (the paper's Listing 3
rewritten back to Listing 1).

The other special shape, a row-grain measure use whose context is an
equality partition (section 5.1), becomes window aggregates through the
WinMagic rewrite of the subquery expansion (:mod:`repro.core.winmagic`).

:func:`inline_expand` raises :class:`~repro.errors.UnsupportedError` when
the query does not match its shape, so callers can fall back to the general
strategy.
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING, Optional

from repro.core.expansion import (
    ExpRelation,
    Expander,
    _apply_rename,
    _detect_aggregate,
)
from repro.errors import MeasureError, UnsupportedError
from repro.sql import ast
from repro.sql.printer import to_sql  # noqa: F401 - measurebench's tracer wraps it
from repro.sql.visitor import transform_topdown

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import Database

__all__ = ["inline_expand"]


def inline_expand(db: "Database", query: ast.Query, *, tracer=None) -> ast.Query:
    """Inline measure formulas into a simple GROUP BY query.

    Shape: ``SELECT g..., AGGREGATE(m)... FROM MT [WHERE w] GROUP BY g...``
    over a single measure table with no AT modifiers.  The result reads the
    source directly — one scan, no correlated subqueries.
    """
    if not isinstance(query, ast.Select):
        raise UnsupportedError("inline strategy requires a plain SELECT")
    select = query
    if not _detect_aggregate(select):
        raise UnsupportedError("inline strategy requires an aggregate query")
    for element in select.group_by:
        if not isinstance(element, ast.SimpleGrouping):
            raise UnsupportedError("inline strategy does not support grouping sets")

    if select.from_clause is None or isinstance(select.from_clause, ast.Join):
        raise UnsupportedError("inline strategy requires a single-table FROM clause")
    relations: list[ExpRelation] = []
    Expander(db)._expand_from(select.from_clause, relations, [])
    if len(relations) != 1 or relations[0].table is None:
        raise UnsupportedError("inline strategy requires one measure-bearing relation")
    relation = relations[0]
    table = relation.table
    assert table is not None

    rename = {"": "", **{}}  # leave source refs unqualified; single relation

    def translate(expr: ast.Expression) -> ast.Expression:
        """Rewrite exposed-column refs to source expressions; inline
        AGGREGATE(m) to the measure formula.  Top-down so that AGGREGATE(m)
        is matched before its bare measure argument."""

        def visit(node: ast.Node):
            if isinstance(node, ast.At):
                raise UnsupportedError(
                    "inline strategy does not support AT modifiers"
                )
            if isinstance(node, ast.FunctionCall) and node.name in (
                "AGGREGATE",
                "EVAL",
            ):
                inner = node.args[0] if node.args else None
                if not isinstance(inner, ast.ColumnRef) or not relation.has_measure(
                    inner.name
                ):
                    raise MeasureError(f"{node.name} argument must be a measure")
                formula = copy.deepcopy(table.measures[inner.name.lower()])
                return _apply_rename(formula, rename)
            if isinstance(node, ast.ColumnRef):
                if relation.has_measure(node.name):
                    raise UnsupportedError(
                        "inline strategy requires AGGREGATE(...) around "
                        "measure uses (bare uses ignore the WHERE clause)"
                    )
                dim = table.dims.get(node.name.lower())
                if dim is not None:
                    return _apply_rename(copy.deepcopy(dim), rename)
            return None

        return transform_topdown(copy.deepcopy(expr), visit)

    new_items = [
        ast.SelectItem(translate(item.expr), item.alias) for item in select.items
    ]
    new_group = [
        ast.SimpleGrouping(translate(element.expr))  # type: ignore[union-attr]
        for element in select.group_by
    ]
    conjuncts: list[ast.Expression] = []
    if table.source_where is not None:
        conjuncts.append(_apply_rename(copy.deepcopy(table.source_where), rename))
    if select.where is not None:
        conjuncts.append(translate(select.where))
    where: Optional[ast.Expression] = None
    for conjunct in conjuncts:
        where = conjunct if where is None else ast.Binary("AND", where, conjunct)

    if tracer is not None and tracer.current is not None:
        tracer.current.meta["inlined_items"] = len(new_items)
    return ast.Select(
        items=new_items,
        from_clause=copy.deepcopy(table.source_from),
        where=where,
        group_by=new_group,
        having=translate(select.having) if select.having is not None else None,
        order_by=[
            ast.OrderItem(translate(o.expr), o.descending, o.nulls_first)
            for o in select.order_by
        ],
        limit=select.limit,
        offset=select.offset,
        distinct=select.distinct,
    )
