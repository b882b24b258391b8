"""Spans around the public calls of each layer, recorded from outside.

:class:`Tracer` replaces a fixed list of module attributes and methods of
``repro`` with wrappers that record one span per call (name, start, end,
parent span, request id) and restores them on exit.  Nothing in the program
changes: a wrapped function is looked up through the same attribute the
program already uses, so lazily imported callees (``from repro.x import f``
inside a function body) pick the wrapper up too.  The executor's
``execute_plan`` calls itself once per plan node; a call made directly inside
an ``engine.execute`` span therefore runs unwrapped, so one execution is one
span however deep its plan.

Spans stay in memory for the whole traced phase; :meth:`Tracer.layer_report`
turns them into self time per span name (a span's duration minus the time
its direct children cover) and :meth:`Tracer.dump` writes them out.
"""

from __future__ import annotations

import collections
import json
import time
from typing import Callable, Optional


class Tracer:
    """Records spans for every call through the wrapped layer entry points."""

    def __init__(self):
        #: [name, start, end, parent index, request id]
        self.spans: list = []
        self.counters: collections.Counter = collections.Counter()
        self.request: Optional[int] = None
        self._stack: list = []
        self._patched: list = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(
        self,
        name: str,
        fn: Callable,
        after: Optional[Callable] = None,
        reentrant: bool = True,
    ):
        """``fn`` recording a span ``name`` per call.  With ``reentrant``
        False, a call made while the innermost open span is ``name`` itself
        runs unwrapped."""
        spans = self.spans
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            if not reentrant and stack and spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.request]
            spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def patch(self, owner, attribute: str, name: str, after=None, reentrant=True) -> None:
        original = getattr(owner, attribute)
        setattr(owner, attribute, self._wrap(name, original, after, reentrant))
        self._patched.append((owner, attribute, original))

    def __enter__(self) -> "Tracer":
        import repro.analysis.dataflow as dataflow
        import repro.api as api
        import repro.core.evaluator as core_evaluator
        import repro.core.expansion as expansion
        import repro.core.lambdas as lambdas
        import repro.core.strategies as strategies
        import repro.core.winmagic as winmagic
        import repro.engine.executor as executor
        import repro.introspect.fingerprint as fingerprint
        import repro.matview.definition as definition
        import repro.matview.maintenance as maintenance
        import repro.sql as sql
        import repro.sql.printer as printer
        from repro.semantics.binder import Binder
        from repro.server import session

        counters = self.counters

        def after_execute(args, rows):
            ctx = args[1]
            counters["executions"] += 1
            counters["result_rows"] += len(rows)
            for key in (
                "rows_scanned",
                "hash_joins",
                "nested_loop_joins",
                "measure_evaluations",
                "measure_cache_hits",
                "subquery_executions",
                "subquery_cache_hits",
            ):
                counters[key] += getattr(ctx, key)

        def after_optimize(args, plan):
            counters["optimized_plans"] += 1
            counters["plan_nodes"] += sum(1 for _ in plan.walk())

        # Every module that binds these two names at import time.
        for module in (sql, api, session, lambdas):
            self.patch(module, "parse_statement", "sql.parse")
        for module in (printer, fingerprint, expansion, definition, strategies,
                       winmagic, lambdas):
            self.patch(module, "to_sql", "sql.print")
        self.patch(api, "rewrite_query", "matview.rewrite")
        self.patch(maintenance, "refresh", "matview.refresh")
        self.patch(maintenance, "on_insert", "matview.maintain")
        self.patch(maintenance, "on_mutation", "matview.maintain")
        self.patch(Binder, "bind_query_top", "semantics.bind")
        self.patch(api, "optimize", "plan.optimize", after_optimize)
        self.patch(dataflow, "analyze_plan", "analysis.dataflow")
        self.patch(expansion, "expand_to_sql", "core.expand")
        self.patch(core_evaluator, "evaluate_measure", "core.measure")
        # The API's calls read the engine's counters off their context.  The
        # executor's own name is what the measure evaluator's source plans
        # and the expression evaluator's subqueries import when called; those
        # add to the context the API's call reads.
        self.patch(api, "execute_plan", "engine.execute", after_execute)
        self.patch(executor, "execute_plan", "engine.execute", reentrant=False)
        for method in ("execute", "execute_with_strategy"):
            self.patch(api.Database, method, "api." + method)
        self.patch(api.Database, "plan_query", "api.plan_query")
        self.patch(api.Database, "execute_planned", "api.execute_planned")
        for method in ("_insert", "_update", "_delete"):
            self.patch(api.Database, method, "storage.write")
        self.patch(session.Session, "execute", "server.session")
        return self

    def __exit__(self, *exc_info) -> None:
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    def op(self, request: int, fn: Callable):
        """Run one benchmark operation as the root span ``bench.op``."""
        self.request = request
        return self._wrap("bench.op", fn)()

    # -- reporting ------------------------------------------------------------

    def layer_report(self) -> tuple[dict, dict, dict]:
        """``(self seconds, inclusive seconds, call count)`` per span name."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        self_s: dict = collections.defaultdict(float)
        total_s: dict = collections.defaultdict(float)
        calls: dict = collections.Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child_time[index]
            total_s[name] += end - start
            calls[name] += 1
        return dict(self_s), dict(total_s), dict(calls)

    def dump(self, path) -> None:
        """Write every span as one JSON line (relative to the first start)."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for index, (name, start, end, parent, request) in enumerate(
                self.spans
            ):
                out.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start_us": round((start - origin) * 1e6, 1),
                            "end_us": round((end - origin) * 1e6, 1),
                            "parent": parent,
                            "request": request,
                        }
                    )
                    + "\n"
                )
