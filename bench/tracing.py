"""Outside-in span tracing for the benchmark's ``--trace`` runs.

The benchmark never edits ``src/``: it times each layer by wrapping the
public functions and methods that layer exposes. :meth:`Tracer.install`
swaps every entry point in :data:`LAYER_ENTRY_POINTS` for a wrapper that
records one span per call: name, start, end, parent span, correlation id
and a few call attributes (points solved, probes run, outcome). Module
functions are rebound in *every* loaded module that holds them, so a
``from repro.core.admission import find_max_bes`` binding elsewhere is
traced too.

Spans stay in memory until the run ends. A span's *self time* is its
duration minus the union of its children's intervals; the per-layer
table (:func:`layer_metrics`) sums self times, call counts and ratios
per layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path

__all__ = [
    "LAYER_ENTRY_POINTS",
    "PER_LAYER_METRICS",
    "Tracer",
    "layer_metrics",
    "self_times",
    "union_length",
]

# Span tuple fields (lists, so the end time can be filled in place).
NAME, START, END, PARENT, CORR, ATTRS = range(6)


def _solver_attrs(batch: bool):
    def attrs(args, kwargs, result):
        states = result if batch else [result]
        return {
            "precision": kwargs.get("precision", "exact"),
            "points": len(args[1]) if batch else 1,
            "iterations": (
                sum(int(s.iterations) for s in states)
                if result is not None
                else 0
            ),
        }

    return attrs


def _lookups(n_points_arg: bool):
    def attrs(args, kwargs, result):
        return {"lookups": len(args[2]) if n_points_arg else 1}

    return attrs


def _probes(args, kwargs, result):
    return {"probes": len(result.probes) if result is not None else 0}


def _cells(args, kwargs, result):
    return {"cells": len(result) if result is not None else 0}


def _plane_outcome(args, kwargs, result):
    return {
        "kind": args[1].kind,
        "outcome": (result or {}).get("outcome"),
    }


def _reconcile_counts(args, kwargs, result):
    result = result or {}
    return {
        "migrations": result.get("migrations", 0),
        "drains": result.get("drains", 0),
    }


def _run_pair_corr(args, kwargs):
    mix, policy = args[0], args[1]
    return f"{mix.hp.name}|{mix.be.name}|{mix.n_be}|{policy.name}"


#: (module, attribute, span name, attrs hook, correlation hook). An
#: attribute ``Class.method`` wraps the method on the class; a bare name
#: wraps the module function and every from-import binding of it.
LAYER_ENTRY_POINTS: tuple[tuple, ...] = (
    ("repro.sim.contention", "solve_steady_state", "sim.solver.singleton",
     _solver_attrs(batch=False), None),
    ("repro.sim.contention", "solve_steady_state_batch", "sim.solver.batch",
     _solver_attrs(batch=True), None),
    ("repro.sim.contention", "SteadyStateCache.solve",
     "sim.steady_cache.solve", _lookups(False), None),
    ("repro.sim.contention", "SteadyStateCache.solve_many",
     "sim.steady_cache.solve_many", _lookups(True), None),
    ("repro.sim.server", "Server.advance", "sim.server.advance", None, None),
    ("repro.sim.server", "Server.prefetch_phase_product",
     "sim.server.prefetch", None, None),
    ("repro.sim.server", "Server.prefetch_partitions",
     "sim.server.prefetch", None, None),
    ("repro.sim.solo", "solo_profile", "sim.solo.profile", None, None),
    ("repro.sim.solo", "prewarm_profiles", "sim.solo.prewarm", None, None),
    ("repro.rdt.simulated", "SimulatedRdt.sample", "rdt.sample", None, None),
    ("repro.rdt.simulated", "SimulatedRdt.apply", "rdt.apply", None, None),
    ("repro.rdt.simulated", "SimulatedRdt.prefetch_allocations",
     "rdt.prefetch", None, None),
    ("repro.core.policies", "DicerPolicy.update",
     "core.controller.dicer", None, None),
    ("repro.core.lfoc", "LfocPolicy.update",
     "core.controller.lfoc", None, None),
    ("repro.core.cbp", "CbpPolicy.update", "core.controller.cbp", None, None),
    # AdmissionCache.max_bes is not wrapped: it is a memo lookup made per
    # node per job inside canonical_placement, and a span would cost more
    # than the lookup. Its searches are the find_max_bes calls made under
    # canonical_placement.
    ("repro.core.admission", "find_max_bes",
     "core.admission.find_max_bes", _probes, None),
    ("repro.experiments.runner", "run_pair", "experiments.runner.run_pair",
     None, _run_pair_corr),
    ("repro.experiments.supervise", "SupervisedExecutor.run",
     "experiments.supervise.run", None, None),
    ("repro.experiments.store", "ResultStore.get_many",
     "experiments.store.get_many", _cells, None),
    ("repro.experiments.store", "ResultStore.save",
     "experiments.store.save", None, None),
    ("repro.experiments.backends.sqlite", "SqliteBackend.load",
     "experiments.store.load", None, None),
    ("repro.experiments.backends.filejson", "FileBackend.load",
     "experiments.store.load", None, None),
    ("repro.serve.placement", "ControlPlane.apply_event",
     "serve.plane.apply_event", _plane_outcome, None),
    ("repro.serve.placement", "ControlPlane.reconcile",
     "serve.plane.reconcile", _reconcile_counts, None),
    ("repro.serve.placement", "ControlPlane.canonical_placement",
     "serve.plane.canonical_placement", None, None),
    ("repro.serve.daemon", "ServeDaemon.apply_event",
     "serve.daemon.apply_event", None, None),
    ("repro.serve.node", "NodeRuntime.assign", "serve.node.assign",
     None, None),
    ("repro.serve.snapshot", "save_snapshot", "serve.snapshot.save",
     None, None),
    ("repro.serve.snapshot", "load_snapshot", "serve.snapshot.load",
     None, None),
)


class Tracer:
    """In-memory span recorder with install/uninstall of layer wrappers."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _begin(self, name: str, corr) -> int:
        parent = self._open[-1] if self._open else -1
        if parent >= 0 and self.spans[parent][CORR] is not None:
            corr = self.spans[parent][CORR]  # the outermost id wins
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, corr, None])
        self._open.append(index)
        return index

    def _end(self, index: int, attrs) -> None:
        self.spans[index][END] = time.perf_counter()
        self.spans[index][ATTRS] = attrs
        popped = self._open.pop()
        if popped != index:
            raise RuntimeError(f"span stack out of order: {popped} != {index}")

    @contextmanager
    def span(self, name: str, corr=None):
        """Record a span around a block of the benchmark's own code."""
        index = self._begin(name, corr)
        try:
            yield
        finally:
            self._end(index, None)

    def wrap(self, fn, name: str, attrs_hook=None, corr_hook=None):
        """Return ``fn`` wrapped to record one ``name`` span per call."""
        tracer = self

        def finish(index, args, kwargs, result, error):
            attrs = attrs_hook(args, kwargs, result) if attrs_hook else None
            if error is not None:
                attrs = dict(attrs or {}, error=type(error).__name__)
            tracer._end(index, attrs)

        def corr_of(args, kwargs):
            return corr_hook(args, kwargs) if corr_hook else None

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                index = tracer._begin(name, corr_of(args, kwargs))
                result = error = None
                try:
                    result = await fn(*args, **kwargs)
                    return result
                except BaseException as exc:
                    error = exc
                    raise
                finally:
                    finish(index, args, kwargs, result, error)

            return traced_async

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer._begin(name, corr_of(args, kwargs))
            result = error = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                finish(index, args, kwargs, result, error)

        return traced

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every entry point in :data:`LAYER_ENTRY_POINTS`."""
        for module_name, attr, name, attrs_hook, corr_hook in LAYER_ENTRY_POINTS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._patch(
                    cls, method, self.wrap(original, name, attrs_hook, corr_hook)
                )
                continue
            original = getattr(module, attr)
            wrapped = self.wrap(original, name, attrs_hook, corr_hook)
            for loaded in list(sys.modules.values()):
                namespace = getattr(loaded, "__dict__", None)
                if not namespace:
                    continue
                for key, value in list(namespace.items()):
                    if value is original:
                        self._patch(loaded, key, wrapped)

    def uninstall(self) -> None:
        """Restore every wrapped attribute (reverse order)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path: Path) -> None:
        """Dump every span, one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, corr, attrs) in enumerate(
                self.spans
            ):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "corr": corr,
                            "attrs": attrs,
                        }
                    )
                    + "\n"
                )


# -- analysis ----------------------------------------------------------


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        start, end = max(start, lo), min(end, hi)
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span[PARENT] >= 0:
            children.setdefault(span[PARENT], []).append(
                (span[START], span[END])
            )
    return [
        (span[END] - span[START])
        - union_length(children.get(i, ()), span[START], span[END])
        for i, span in enumerate(spans)
    ]


_PRECISIONS = ("exact", "fast")
_SOLVER_KINDS = ("singleton", "batch")
_SOLVER_FIELDS = ("calls", "points", "iterations", "self_s", "us_per_point")
_POLICIES = ("dicer", "lfoc", "cbp")

#: Every per-layer metric a ``--trace`` run reports, with its unit.
PER_LAYER_METRICS: dict[str, str] = {
    **{
        f"sim.solver.{p}.{k}.{f}": {
            "calls": "count",
            "points": "count",
            "iterations": "count",
            "self_s": "s",
            "us_per_point": "us",
        }[f]
        for p in _PRECISIONS
        for k in _SOLVER_KINDS
        for f in _SOLVER_FIELDS
    },
    "sim.steady_cache.lookups": "count",
    "sim.steady_cache.hit_rate": "ratio",
    "sim.steady_cache.self_s": "s",
    "sim.server.advance_calls": "count",
    "sim.server.prefetch_calls": "count",
    "sim.server.self_s": "s",
    "sim.solo.calls": "count",
    "sim.solo.self_s": "s",
    "rdt.samples": "count",
    "rdt.applies": "count",
    "rdt.self_s": "s",
    **{
        f"core.controller.{p}.{f}": u
        for p in _POLICIES
        for f, u in (("updates", "count"), ("self_s", "s"))
    },
    "core.admission.queries": "count",
    "core.admission.probes": "count",
    "core.admission.searches": "count",
    "core.admission.self_s": "s",
    "experiments.runner.cells": "count",
    "experiments.runner.self_s": "s",
    "experiments.supervise.batches": "count",
    "experiments.supervise.self_s": "s",
    "experiments.store.computed": "count",
    "experiments.store.served": "count",
    "experiments.store.saves": "count",
    "experiments.store.save_s": "s",
    "experiments.store.load_s": "s",
    "experiments.store.self_s": "s",
    "serve.plane.events": "count",
    "serve.plane.reconcile_s": "s",
    "serve.plane.admit_check_s": "s",
    "serve.plane.apply_self_s": "s",
    "serve.plane.migrations": "count",
    "serve.plane.drains": "count",
    "serve.plane.rejected_frac": "ratio",
    "serve.daemon.actuate_self_s": "s",
    "serve.node.assigns": "count",
    "serve.node.retries": "count",
    "serve.snapshot.saves": "count",
    "serve.snapshot.save_s": "s",
    "serve.snapshot.load_s": "s",
    "bench.glue_self_s": "s",
}


def layer_metrics(spans) -> dict[str, float]:
    """Aggregate spans into :data:`PER_LAYER_METRICS` values.

    Layers a workload never enters report zero.
    """
    own = self_times(spans)
    out: dict[str, float] = {name: 0 for name in PER_LAYER_METRICS}

    def add(key: str, value) -> None:
        out[key] += value

    under_get_many = _descendant_flags(spans, "experiments.store.get_many")
    submits = rejected = 0
    for i, span in enumerate(spans):
        name, attrs = span[NAME], span[ATTRS] or {}
        duration = span[END] - span[START]
        parent = spans[span[PARENT]][NAME] if span[PARENT] >= 0 else None
        if name.startswith("sim.solver."):
            kind = name.rsplit(".", 1)[1]
            prefix = f"sim.solver.{attrs.get('precision', 'exact')}.{kind}"
            add(f"{prefix}.calls", 1)
            add(f"{prefix}.points", attrs.get("points", 0))
            add(f"{prefix}.iterations", attrs.get("iterations", 0))
            add(f"{prefix}.self_s", own[i])
        elif name.startswith("sim.steady_cache."):
            add("sim.steady_cache.lookups", attrs.get("lookups", 0))
            add("sim.steady_cache.self_s", own[i])
        elif name.startswith("sim.server."):
            kind = "advance" if name.endswith("advance") else "prefetch"
            add(f"sim.server.{kind}_calls", 1)
            add("sim.server.self_s", own[i])
        elif name.startswith("sim.solo."):
            if name == "sim.solo.profile":
                add("sim.solo.calls", 1)
            add("sim.solo.self_s", own[i])
        elif name.startswith("rdt."):
            if name == "rdt.sample":
                add("rdt.samples", 1)
            elif name == "rdt.apply":
                add("rdt.applies", 1)
            add("rdt.self_s", own[i])
        elif name.startswith("core.controller."):
            add(f"{name}.updates", 1)
            add(f"{name}.self_s", own[i])
        elif name.startswith("core.admission."):
            if name == "core.admission.find_max_bes":
                add("core.admission.queries", 1)
                add("core.admission.probes", attrs.get("probes", 0))
                if parent == "serve.plane.canonical_placement":
                    add("core.admission.searches", 1)
            add("core.admission.self_s", own[i])
        elif name == "experiments.runner.run_pair":
            add("experiments.runner.cells", 1)
            add("experiments.runner.self_s", own[i])
            if under_get_many[i]:
                add("experiments.store.computed", 1)
        elif name == "experiments.supervise.run":
            add("experiments.supervise.batches", 1)
            add("experiments.supervise.self_s", own[i])
        elif name.startswith("experiments.store."):
            if name == "experiments.store.get_many":
                add("experiments.store.served", attrs.get("cells", 0))
            elif name == "experiments.store.save":
                add("experiments.store.saves", 1)
                add("experiments.store.save_s", duration)
            else:
                add("experiments.store.load_s", duration)
            add("experiments.store.self_s", own[i])
        elif name == "serve.plane.apply_event":
            add("serve.plane.events", 1)
            add("serve.plane.apply_self_s", own[i])
            if attrs.get("kind") == "submit":
                submits += 1
                rejected += attrs.get("outcome") == "rejected"
        elif name == "serve.plane.reconcile":
            add("serve.plane.reconcile_s", duration)
            add("serve.plane.migrations", attrs.get("migrations", 0))
            add("serve.plane.drains", attrs.get("drains", 0))
        elif name == "serve.plane.canonical_placement":
            if parent != "serve.plane.reconcile":
                add("serve.plane.admit_check_s", duration)
        elif name == "serve.daemon.apply_event":
            add("serve.daemon.actuate_self_s", own[i])
        elif name == "serve.node.assign":
            add("serve.node.assigns", 1)
            add("serve.node.retries", "error" in attrs)
        elif name.startswith("serve.snapshot."):
            kind = name.rsplit(".", 1)[1]
            if kind == "save":
                add("serve.snapshot.saves", 1)
            add(f"serve.snapshot.{kind}_s", duration)
        elif name.startswith("bench."):
            add("bench.glue_self_s", own[i])
    # Served = requested minus computed (get_many counted every cell).
    out["experiments.store.served"] -= out["experiments.store.computed"]
    lookups = out["sim.steady_cache.lookups"]
    if lookups:
        misses = _direct_solver_points(spans)
        out["sim.steady_cache.hit_rate"] = 1.0 - misses / lookups
    if submits:
        out["serve.plane.rejected_frac"] = rejected / submits
    for p in _PRECISIONS:
        for k in _SOLVER_KINDS:
            prefix = f"sim.solver.{p}.{k}"
            points = out[f"{prefix}.points"]
            if points:
                out[f"{prefix}.us_per_point"] = (
                    out[f"{prefix}.self_s"] / points * 1e6
                )
    return out


def _descendant_flags(spans, ancestor: str) -> list[bool]:
    """Whether each span has an ``ancestor``-named span above it."""
    flags: list[bool] = []
    for span in spans:  # parents always precede their children
        parent = span[PARENT]
        flags.append(
            parent >= 0
            and (spans[parent][NAME] == ancestor or flags[parent])
        )
    return flags


def _direct_solver_points(spans) -> int:
    """Points solved by solver calls made straight from the steady cache."""
    return sum(
        (span[ATTRS] or {}).get("points", 0)
        for span in spans
        if span[NAME].startswith("sim.solver.")
        and span[PARENT] >= 0
        and spans[span[PARENT]][NAME].startswith("sim.steady_cache.")
    )
