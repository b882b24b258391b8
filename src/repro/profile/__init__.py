"""Runtime observability: tracing spans and query profiles.

The subsystem has two layers:

* :mod:`repro.profile.tracer` — a lightweight span tracer.  A
  :class:`~repro.profile.tracer.Span` covers one phase (parse, bind,
  optimize, execute), one plan-operator execution, or one measure-context
  evaluation; spans nest, so a finished trace is a tree.
* :mod:`repro.profile.profiler` — :class:`~repro.profile.profiler.Profiler`
  collects phases, measure spans and engine counters while a query runs
  and freezes into a :class:`~repro.profile.profiler.QueryProfile`, the
  stable, serializable artifact behind ``EXPLAIN ANALYZE``,
  ``Database(profile=True)`` / ``Database.last_profile()``, the shell's
  ``\\profile`` command, and the ``BENCH_*.json`` snapshots.

Per-operator metrics (rows in/out, calls, wall time, hash probes, ...)
are the :class:`~repro.engine.progress.OperatorRecord`\\ s of the
execution's :class:`~repro.engine.progress.ExecutionMonitor`, the
executor's one instrumentation hook; the profile freezes them into its
operator tree.

Instrumentation is zero-cost when off: a bare execution has no monitor
and no profiler, so the engine consults a single ``is None`` guard per
operator execution and takes no timestamps, allocates no spans, and
touches no dictionaries.
"""

from repro.profile.profiler import Profiler, QueryProfile
from repro.profile.tracer import Span, Tracer

__all__ = ["Span", "Tracer", "Profiler", "QueryProfile"]
