"""Span recorder for the traced run, wrapped around the program's public
entry points where the search calls them.

Each wrapped call is a span.  A span's self time is its duration minus
the time of the spans it directly contains, so the self times of all
spans under ``run_search`` add up to the ``run_search`` time.  Spans are
aggregated by name as they close; nothing is kept per call.

The layers are the program's modules:

==================  ==================================================
span                wrapped callable (where it is looked up)
==================  ==================================================
search              ``run_search``, called by the benchmark's loop
lm                  ``model.top_candidates`` of the model instance
checker.search      the checker ``sqlsynth.search.make_checker`` returns,
checker.prefilter   split by whether ``test_and_repair`` is running
nsql.parse_partial  ``parse_partial`` in ``sqlsynth.checker`` and
                    ``sqlsynth.search``
nsql.parse_complete ``parse_complete`` in ``sqlsynth.search``
repair              ``test_and_repair`` in ``sqlsynth.search``
repair.enumerate    each ``next()`` on ``hamming_one_queries`` in
                    ``sqlsynth.repair`` (variant rendering and parsing)
repair.execute      ``execute_query`` in ``sqlsynth.repair``
==================  ==================================================

An entry point that the program no longer has, or that a search must
reach but never did, is reported as missing (``None``), not as zero.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter
from typing import Callable, Iterator

# Entry points patched in place: (module, attribute, span, required).  A
# solved search always passes through the required ones, so zero calls
# to one means the program stopped calling it: it reads as missing.
ENTRY_POINTS = (
    ("sqlsynth.search", "make_checker", "checker.search", True),
    ("sqlsynth.checker", "parse_partial", "nsql.parse_partial", True),
    ("sqlsynth.search", "parse_partial", "nsql.parse_partial", False),
    ("sqlsynth.search", "parse_complete", "nsql.parse_complete", True),
    ("sqlsynth.search", "test_and_repair", "repair", True),
    ("sqlsynth.repair", "hamming_one_queries", "repair.enumerate", False),
    ("sqlsynth.repair", "execute_query", "repair.execute", True),
)

# Relative tolerance for the self times of all spans against the
# run_search time the benchmark's loop measures around the same calls.
SELF_TIME_TOLERANCE = 0.01


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter[str] = Counter()
        self.missing: set[str] = set()
        self._required: set[str] = {"search", "lm"}
        self._stack: list[list[float]] = []  # child time of each open span
        self._repair_depth = 0
        self._enumerating = False
        self._restore: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _enter(self) -> float:
        self._stack.append([0.0])
        return perf_counter()

    def _exit(self, name: str, started: float) -> None:
        elapsed = perf_counter() - started
        (children,) = self._stack.pop()
        self.calls[name] += 1
        self.total[name] += elapsed
        self.self_time[name] += elapsed - children
        if self._stack:
            self._stack[-1][0] += elapsed

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            started = self._enter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, started)

        return traced

    # -- layer-specific wrappers ---------------------------------------------

    def _wrap_checker_factory(self, make_checker: Callable) -> Callable:
        def traced_make_checker(*args, **kwargs):
            check = make_checker(*args, **kwargs)

            def traced_check(*check_args, **check_kwargs):
                name = "checker.prefilter" if self._repair_depth else "checker.search"
                started = self._enter()
                try:
                    verdict = check(*check_args, **check_kwargs)
                finally:
                    self._exit(name, started)
                if not getattr(verdict, "ok", True):
                    self.counts[f"{name}.rejected"] += 1
                return verdict

            return traced_check

        return traced_make_checker

    def _wrap_repair(self, test_and_repair: Callable) -> Callable:
        def traced_test_and_repair(*args, **kwargs):
            self._repair_depth += 1
            self._enumerating = False
            started = self._enter()
            try:
                return test_and_repair(*args, **kwargs)
            finally:
                self._exit("repair", started)
                self._repair_depth -= 1

        return traced_test_and_repair

    def _wrap_enumerator(self, enumerate_variants: Callable) -> Callable:
        def traced_variants(*args, **kwargs) -> Iterator:
            variants = enumerate_variants(*args, **kwargs)
            self._enumerating = True
            while True:
                started = self._enter()
                try:
                    variant = next(variants)
                except StopIteration:
                    return
                finally:
                    self._exit("repair.enumerate", started)
                self.counts["repair.variants_enumerated"] += 1
                yield variant

        return traced_variants

    def _wrap_execute(self, execute_query: Callable) -> Callable:
        def traced_execute(*args, **kwargs):
            started = self._enter()
            try:
                result = execute_query(*args, **kwargs)
            finally:
                self._exit("repair.execute", started)
            self.counts["repair.execute.rows"] += len(getattr(result, "rows", ()))
            if self._repair_depth and self._enumerating:
                self.counts["repair.variants_executed"] += 1
            return result

        return traced_execute

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        """Patch every entry point; record the ones that do not exist."""
        special = {
            "make_checker": self._wrap_checker_factory,
            "test_and_repair": self._wrap_repair,
            "hamming_one_queries": self._wrap_enumerator,
            "execute_query": self._wrap_execute,
        }
        for module_name, attribute, span, required in ENTRY_POINTS:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute, None)
            if original is None:
                self.missing.add(span)
                continue
            if required:
                self._required.add(span)
            wrapper = special.get(attribute)
            patched = wrapper(original) if wrapper else self.wrap(span, original)
            setattr(module, attribute, patched)
            self._restore.append((module, attribute, original))

    def uninstall(self) -> None:
        for module, attribute, original in reversed(self._restore):
            setattr(module, attribute, original)
        self._restore.clear()

    def wrap_model(self, model: object) -> None:
        """Time ``top_candidates`` on this model instance."""
        original = getattr(model, "top_candidates", None)
        if original is None:
            self.missing.add("lm")
            return
        model.top_candidates = self.wrap("lm", original)  # type: ignore[attr-defined]

    # -- results -----------------------------------------------------------------

    def absent(self) -> set[str]:
        """Spans to report as missing: not patched, or required but
        never reached."""
        never = {span for span in self._required if self.calls[span] == 0}
        return self.missing | never

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
            "absent": sorted(self.absent()),
        }
