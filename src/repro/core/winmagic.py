"""The WinMagic rewrite: correlated subqueries to window aggregates.

Paper section 5.1 builds on Zuzarte et al. (SIGMOD 2003), whose WinMagic
algorithm rewrites Listing 12's query 1 (correlated subquery) into query 3
(window aggregate), eliminating the second scan of the input.  This module
implements that rewrite for the shape the paper discusses, which is also
the shape the subquery expansion of a row-grain measure use produces::

    SELECT ... FROM T AS o           -- or (SELECT e AS c, ... FROM T [WHERE f]) AS o
    WHERE o.x <op> (SELECT F(AGG(expr), ...) FROM T AS i
                    WHERE [f AND] i.k = o.k [AND e(i) IS NOT DISTINCT FROM o.c])

becomes::

    SELECT ... FROM
      (SELECT e AS c, ...,
              CASE WHEN k IS NULL THEN <AGG over no rows>
                   ELSE AGG(expr) OVER (PARTITION BY k, e) END AS __win0
       FROM T [WHERE f]) AS o
    WHERE o.x <op> F(o.__win0, ...)

Applicability conditions (checked, with :class:`UnsupportedError` raised
otherwise):

* the outer query is a non-aggregate SELECT without ``*`` over one base
  table, named directly or through a derived table that computes each of
  its columns from one row of the table, optionally filtered;
* the subquery scans the same table, with no further nesting, grouping,
  or set operations, and its one item is an expression over plain
  aggregate calls of the subquery's own columns (each call gets a window);
* every subquery WHERE conjunct is either a correlation, by ``=`` or
  ``IS NOT DISTINCT FROM``, of an outer column with the expression that
  computes it, over the subquery's row (it becomes PARTITION BY), or
  local; the local conjuncts must be exactly the outer source's filter, so
  the window sees the rows the subquery saw.

PARTITION BY groups NULL keys together, which is ``IS NOT DISTINCT FROM``.
An ``=`` correlation matches no row when the outer key is NULL, so there
each window column takes its aggregate's value over no input rows (0 for
COUNT, NULL for the others).

Measures rewrite to correlated subqueries (:mod:`repro.core.expansion`),
and this rewrite over that expansion is how they reach window aggregates:
it serves the ``window``, ``winmagic`` and ``auto`` strategies.
"""

from __future__ import annotations

import dataclasses
from typing import Optional, TYPE_CHECKING

from repro.catalog.objects import BaseTable
from repro.core.expansion import _detect_aggregate, _split_and
from repro.engine.aggregates import is_aggregate_function, make_accumulator
from repro.errors import UnsupportedError
from repro.sql import ast
from repro.sql.printer import to_sql
from repro.sql.visitor import transform_topdown

if TYPE_CHECKING:  # pragma: no cover
    from repro.api import Database

__all__ = ["winmagic_rewrite"]


def winmagic_rewrite(db: "Database", query: ast.Query, *, tracer=None) -> ast.Query:
    """Rewrite eligible correlated subqueries in ``query`` to window
    aggregates.  Raises UnsupportedError when nothing is eligible.

    ``query`` is not modified.  With a tracer attached, the current span is
    annotated with how many window columns the rewrite introduced.
    """
    telemetry = getattr(db, "telemetry", None)
    try:
        result, windows = _rewrite(db, query)
    except UnsupportedError:
        if telemetry is not None:
            telemetry.record_winmagic("unsupported")
        raise
    if telemetry is not None:
        telemetry.record_winmagic("rewritten")
    if tracer is not None and tracer.current is not None:
        tracer.current.meta["window_columns"] = windows
    return result


def _rewrite(db: "Database", query: ast.Query) -> tuple[ast.Select, int]:
    if not isinstance(query, ast.Select):
        raise UnsupportedError("WinMagic requires a plain SELECT")
    if _detect_aggregate(query):
        raise UnsupportedError("WinMagic applies to non-aggregate queries")
    if any(isinstance(item.expr, ast.Star) for item in query.items):
        raise UnsupportedError("WinMagic does not rewrite SELECT *")
    alias, source = _source_of(db, query.from_clause)

    rewriter = _Rewriter(alias, source)
    rewrite = rewriter.rewrite
    select = dataclasses.replace(
        query,
        items=[dataclasses.replace(i, expr=rewrite(i.expr)) for i in query.items],
        where=rewrite(query.where) if query.where is not None else None,
        order_by=[dataclasses.replace(o, expr=rewrite(o.expr)) for o in query.order_by],
    )
    if not rewriter.windows:
        raise UnsupportedError("no eligible correlated subquery found")

    # The derived table: the source's columns plus the window columns.
    derived = dataclasses.replace(
        source,
        items=source.items
        + [ast.SelectItem(expr, name) for name, expr in rewriter.windows],
    )
    select.from_clause = ast.SubqueryRef(derived, alias)
    return select, len(rewriter.windows)


def _source_of(
    db: "Database", ref: Optional[ast.TableRef]
) -> tuple[str, ast.Select]:
    """The outer query's source as ``(alias, SELECT e AS c, ... FROM T
    [WHERE f])``.

    A bare base table stands for the projection of all its columns.  A
    derived table qualifies when each item is computed from one row of one
    base table: then the window columns can join its SELECT list without
    changing its rows.
    """
    if isinstance(ref, ast.TableName):
        obj = db.catalog.get(ref.name)
        if isinstance(obj, BaseTable):
            columns = [c.name for c in obj.schema.columns]
            return ref.alias or ref.name, ast.Select(
                items=[ast.SelectItem(ast.ColumnRef((c,)), c) for c in columns],
                from_clause=ast.TableName(ref.name),
            )
    elif (
        isinstance(ref, ast.SubqueryRef)
        and ref.alias is not None
        and _select_from_where(ref.query)
    ):
        inner = ref.query
        assert isinstance(inner, ast.Select)
        assert isinstance(inner.from_clause, ast.TableName)
        if isinstance(db.catalog.get(inner.from_clause.name), BaseTable) and all(
            _name_of(item) is not None and _is_row_expression(item.expr)
            for item in inner.items
        ):
            return ref.alias, inner
    raise UnsupportedError(
        "WinMagic requires one base table, bare or through a row-by-row "
        "projection"
    )


def _name_of(item: ast.SelectItem) -> Optional[str]:
    if item.alias is not None:
        return item.alias
    return item.expr.name if isinstance(item.expr, ast.ColumnRef) else None


def _is_row_expression(expr: ast.Expression) -> bool:
    """No aggregate, window or nested query: a value of one input row."""
    return not any(
        isinstance(node, _NESTED + (ast.Star,))
        or _is_aggregate_call(node)
        or _is_window_call(node)
        for node in expr.walk()
    )


def _alias_of(table: ast.TableName) -> str:
    return (table.alias or table.name).lower()


class _Rewriter:
    def __init__(self, outer_alias: str, source: ast.Select):
        assert isinstance(source.from_clause, ast.TableName)
        self.table_name = source.from_clause.name.lower()
        self.outer_alias = outer_alias
        source_alias = _alias_of(source.from_clause)
        #: lower column name -> (its expression over the table row, as SQL).
        self.columns = {}
        for item in source.items:
            expr = _strip_qualifier(item.expr, source_alias)
            self.columns[_name_of(item).lower()] = (expr, to_sql(expr))
        self.source_filter = sorted(
            to_sql(_strip_qualifier(conjunct, source_alias))
            for conjunct in _conjuncts(source.where)
        )
        self.windows: list[tuple[str, ast.Expression]] = []
        self._keys: dict[str, str] = {}

    def rewrite(self, expr: ast.Expression) -> ast.Expression:
        def visit(node: ast.Node):
            if isinstance(node, ast.ScalarSubquery):
                return self._try_subquery(node.query)
            return None

        return transform_topdown(expr, visit)  # type: ignore[return-value]

    def _try_subquery(self, subquery: ast.Query) -> Optional[ast.Expression]:
        if not (
            _select_from_where(subquery)
            and len(subquery.items) == 1
            and subquery.from_clause.name.lower() == self.table_name
        ):
            return None
        inner_alias = _alias_of(subquery.from_clause)
        # When the subquery's alias hides the outer one, every column
        # reference is the subquery's own: nothing correlates.
        outer_alias = self.outer_alias.lower()
        if inner_alias == outer_alias:
            outer_alias = None

        partition: list[ast.Expression] = []
        strict_keys: list[ast.Expression] = []
        local: list[str] = []
        for conjunct in _conjuncts(subquery.where):
            correlation = self._correlation(conjunct, inner_alias, outer_alias)
            if correlation is None:
                local.append(to_sql(_strip_qualifier(conjunct, inner_alias)))
                continue
            key, strict = correlation
            partition.append(key)
            if strict:
                strict_keys.append(ast.IsNull(key))
        # Local conjuncts equal to the source's filter select the rows the
        # derived table already holds; any other would change the window's
        # input (classic WinMagic's conservative case).
        if sorted(local) != self.source_filter:
            return None
        item = subquery.items[0].expr
        if not _aggregate_formula(item, inner_alias, outer_alias):
            return None
        null_key = _or_all(strict_keys)

        def window_call(node: ast.Node):
            if not _is_aggregate_call(node):
                return None
            windowed: ast.Expression = dataclasses.replace(
                node,
                args=[_strip_qualifier(a, inner_alias) for a in node.args],
                over=ast.WindowSpec(partition_by=list(partition)),
            )
            if null_key is not None:
                empty = make_accumulator(node.name, node.star_arg).result()
                windowed = ast.Case(
                    None, [ast.CaseWhen(null_key, ast.Literal(empty))], windowed
                )
            return ast.ColumnRef((self.outer_alias, self._window_name(windowed)))

        return transform_topdown(item, window_call)  # type: ignore[return-value]

    def _correlation(
        self, conjunct: ast.Expression, inner_alias: str, outer_alias: Optional[str]
    ) -> Optional[tuple[ast.Expression, bool]]:
        """``e(i) = o.c`` or ``e(i) IS NOT DISTINCT FROM o.c`` (either side
        order), where ``e`` computes column ``c`` -> ``(e, strict)``; strict
        for ``=``."""
        if isinstance(conjunct, ast.Binary) and conjunct.op == "=":
            strict = True
        elif isinstance(conjunct, ast.IsDistinctFrom) and conjunct.negated:
            strict = False
        else:
            return None
        pairs = [(conjunct.left, conjunct.right), (conjunct.right, conjunct.left)]
        for outer, inner in pairs:
            if not (
                isinstance(outer, ast.ColumnRef)
                and outer_alias is not None
                and (outer.qualifier or "").lower() == outer_alias
            ):
                continue
            column = self.columns.get(outer.name.lower())
            if column is not None and column[1] == to_sql(
                _strip_qualifier(inner, inner_alias)
            ):
                return column[0], strict
        return None

    def _window_name(self, windowed: ast.Expression) -> str:
        key = to_sql(windowed)
        if key not in self._keys:
            name = f"__win{len(self.windows)}"
            self._keys[key] = name
            self.windows.append((name, windowed))
        return self._keys[key]


def _select_from_where(query: ast.Query) -> bool:
    """``SELECT ... FROM table [WHERE ...]`` with no other clause."""
    return (
        isinstance(query, ast.Select)
        and isinstance(query.from_clause, ast.TableName)
        and not (
            query.group_by
            or query.having is not None
            or query.qualify is not None
            or query.order_by
            or query.limit is not None
            or query.offset is not None
            or query.distinct
            or query.force_aggregate
        )
    )


_NESTED = (ast.Query, ast.ScalarSubquery, ast.Exists, ast.InSubquery)


def _aggregate_formula(
    expr: ast.Node, inner_alias: str, outer_alias: Optional[str]
) -> bool:
    """An expression over plain aggregate calls of the subquery's columns
    (``AGG(expr)`` or ``COUNT(*)``) and outer columns, with at least one
    aggregate call."""
    found = False

    def check(node: ast.Node) -> bool:
        nonlocal found
        if isinstance(node, _NESTED) or _is_window_call(node):
            return False
        if isinstance(node, ast.ColumnRef):
            return node.qualifier is not None and node.qualifier.lower() == outer_alias
        if _is_aggregate_call(node):
            found = True
            if node.filter_where is not None:
                return False
            if node.star_arg or len(node.args) != 1:
                return node.star_arg and not node.args
            arg = node.args[0]
            return _is_row_expression(arg) and all(
                (n.qualifier or inner_alias).lower() == inner_alias
                for n in arg.walk()
                if isinstance(n, ast.ColumnRef)
            )
        return all(check(child) for child in node.children())

    return check(expr) and found


def _is_aggregate_call(node: ast.Node) -> bool:
    return isinstance(node, ast.FunctionCall) and is_aggregate_function(node.name)


def _is_window_call(node: ast.Node) -> bool:
    return isinstance(node, ast.FunctionCall) and (
        node.over is not None or node.over_name is not None
    )


def _conjuncts(where: Optional[ast.Expression]) -> list[ast.Expression]:
    return _split_and(where) if where is not None else []


def _or_all(terms: list[ast.Expression]) -> Optional[ast.Expression]:
    result = None
    for term in terms:
        result = term if result is None else ast.Binary("OR", result, term)
    return result


def _strip_qualifier(expr: ast.Expression, alias: str) -> ast.Expression:
    def visit(node: ast.Node):
        if (
            isinstance(node, ast.ColumnRef)
            and node.qualifier is not None
            and node.qualifier.lower() == alias
        ):
            return ast.ColumnRef((node.name,))
        return None

    return transform_topdown(expr, visit)  # type: ignore[return-value]
