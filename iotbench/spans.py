"""Span recording around the program's public entry points.

The traced run wraps a fixed list of public methods (caches, engine,
seed selection, estimator, cluster, serving) from outside the program:
each call becomes a span ``(id, parent, name, thread, start, end)``
kept in memory, where ``parent`` is the innermost wrapped call still
open on the same thread (or the benchmark's own operation span).  The
untraced runs install nothing, so they time the unmodified program.

Self time is a span's duration minus the time its child spans cover;
children on one thread nest and never overlap, so that is the sum of
their durations.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

#: Calls the caller waits on while the fleet works: the task plane, the
#: pinned-request plane and the placed caches' fan-outs.
CLUSTER_WAITS = (
    "SocketBackend.map_tasks",
    "Coordinator.wait_ticket",
    "Coordinator.placement_fan_out",
    "Coordinator.placement_request",
)


def _targets():
    """``(owner, attribute, span name)`` for every wrapped entry point."""
    from repro.analytics.lssvm import LSSVC
    from repro.cluster.backend import SocketBackend
    from repro.cluster.coordinator import Coordinator
    from repro.cluster.placement import PlacedBlockStatsCache, PlacedGramCache
    import repro.core.faceted as faceted
    from repro.engine.cache import BlockStatsCache, GramCache
    from repro.engine.core import KernelEvaluationEngine
    import repro.mkl.seed as seed
    from repro.serving.model import ServedModel
    from repro.serving.plane import ServingPlane

    return [
        (GramCache, "gram", "GramCache.gram"),
        (BlockStatsCache, "block_stats", "BlockStatsCache.block_stats"),
        (BlockStatsCache, "pair_inner", "BlockStatsCache.pair_inner"),
        (PlacedGramCache, "gram", "PlacedGramCache.gram"),
        (PlacedGramCache, "ensure_strips", "PlacedGramCache.ensure_strips"),
        (PlacedBlockStatsCache, "block_stats", "PlacedBlockStatsCache.block_stats"),
        (PlacedBlockStatsCache, "pair_inner", "PlacedBlockStatsCache.pair_inner"),
        (KernelEvaluationEngine, "score_batch", "KernelEvaluationEngine.score_batch"),
        # FacetedLearner resolves the name in its own module.
        (seed, "roughset_seed_block", "roughset_seed_block"),
        (faceted, "roughset_seed_block", "roughset_seed_block"),
        (LSSVC, "fit", "LSSVC.fit"),
        (LSSVC, "decision_function", "LSSVC.decision_function"),
        (SocketBackend, "map_tasks", "SocketBackend.map_tasks"),
        (Coordinator, "submit_request", "Coordinator.submit_request"),
        (Coordinator, "wait_ticket", "Coordinator.wait_ticket"),
        (Coordinator, "placement_fan_out", "Coordinator.placement_fan_out"),
        (Coordinator, "placement_request", "Coordinator.placement_request"),
        (ServingPlane, "classify", "ServingPlane.classify"),
        (ServingPlane, "install", "ServingPlane.install"),
        (ServedModel, "query_diags", "ServedModel.query_diags"),
    ]


class SpanRecorder:
    """In-memory spans from wrapped entry points and benchmark operations."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, int, float, float]] = []
        self.paused = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span (unless paused)."""
        if self.paused:
            yield
            return
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (span_id, parent, name, threading.get_ident(), start, end)
            )

    def install(self) -> None:
        """Wrap every target; idempotent per recorder."""
        if self._patched:
            return
        for owner, attribute, name in _targets():
            original = getattr(owner, attribute)

            def traced(*args, _name=name, _original=original, **kwargs):
                with self.span(_name):
                    return _original(*args, **kwargs)

            functools.update_wrapper(traced, original)
            setattr(owner, attribute, traced)
            self._patched.append((owner, attribute, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()

    @contextmanager
    def pause(self):
        """Run the benchmark's own checks without recording them."""
        paused, self.paused = self.paused, True
        try:
            yield
        finally:
            self.paused = paused

    def write(self, path, **header) -> None:
        """Write every span as ``[id, parent, name, thread, start, end]``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {**header, "fields": ["id", "parent", "name", "thread",
                                      "start_s", "end_s"],
                 "spans": self.spans},
                handle,
                separators=(",", ":"),
            )


class SpanTable:
    """Per-name totals, self times and counts over recorded spans."""

    def __init__(self, spans) -> None:
        self.name = {}
        self.parent = {}
        child_time: dict[int, float] = defaultdict(float)
        for span_id, parent, name, _, start, end in spans:
            self.name[span_id] = name
            self.parent[span_id] = parent
            child_time[parent] += end - start
        self.count: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self._spans = spans
        for span_id, _, name, _, start, end in spans:
            self.count[name] += 1
            self.total[name] += end - start
            self.self_time[name] += end - start - child_time[span_id]

    def ancestors(self, span_id: int):
        parent = self.parent.get(span_id, 0)
        while parent:
            yield self.name[parent]
            parent = self.parent.get(parent, 0)

    def total_outermost(self, names, under: str | None = None) -> float:
        """Summed duration of spans named in ``names`` that have no
        ancestor in ``names`` (and, if given, an ancestor ``under``)."""
        names = set(names)
        seconds = 0.0
        for span_id, _, name, _, start, end in self._spans:
            if name not in names:
                continue
            lineage = set(self.ancestors(span_id))
            if lineage & names:
                continue
            if under is not None and under not in lineage:
                continue
            seconds += end - start
        return seconds
