"""``repro.obs`` — lightweight observability for the reproduction.

Production cache-partitioning controllers treat telemetry as a
first-class subsystem (LFOC's lightweight online monitoring, CBP's
coordinated multi-resource accounting); this package gives the
reproduction the same: a process-wide :class:`MetricsRegistry`
(counters, gauges, histograms with bounded reservoirs), a structured
JSONL :class:`EventLog`, and **zero-cost no-op behaviour when disabled**
— the process default is a null registry/log pair whose operations
allocate nothing.

Typical lifecycle (what ``dicer-repro --metrics out.jsonl`` does)::

    from repro import obs

    obs.enable("out.jsonl", run_id="fig6-quick")
    ...                       # run campaigns; instrumented code reports
    obs.finalise()            # append metric snapshot lines, close, disable

Instrumented code never checks whether telemetry is on; it writes
through the module-level helpers (or the underlying registries) and the
null implementations absorb the calls::

    from repro.obs import get_event_log, get_registry

    get_registry().counter("steady_cache.misses").inc()
    log = get_event_log()
    if log.enabled:           # guard only to skip payload construction
        log.emit("dicer.decision", period=7, event="shrink", hp_ways=12)

The schema (event kinds and metric names) is documented in DESIGN.md §6.
"""

from __future__ import annotations

from pathlib import Path

from repro.obs.events import (
    NULL_EVENT_LOG,
    EventLog,
    NullEventLog,
    get_event_log,
    set_event_log,
)
from repro.obs.metrics import (
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    Timer,
    get_registry,
    set_registry,
)
from repro.obs.report import (
    load_jsonl,
    render_metrics_summary,
    summarise_metrics,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "Timer",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "EventLog",
    "NullEventLog",
    "NULL_EVENT_LOG",
    "get_registry",
    "set_registry",
    "get_event_log",
    "set_event_log",
    "enable",
    "disable",
    "finalise",
    "enabled",
    "emit",
    "counter",
    "gauge",
    "histogram",
    "load_jsonl",
    "summarise_metrics",
    "render_metrics_summary",
]


def enable(
    path: Path | str | None = None,
    *,
    run_id: str | None = None,
    campaign_id: str | None = None,
) -> tuple[MetricsRegistry, EventLog]:
    """Switch telemetry on process-wide.

    Installs a fresh live registry and event log (streaming to ``path``
    when given) and returns both. Idempotent in effect: enabling twice
    replaces the previous pair (the old log is closed first).
    """
    get_event_log().close()
    registry = MetricsRegistry()
    log = EventLog(path, run_id=run_id, campaign_id=campaign_id)
    set_registry(registry)
    set_event_log(log)
    return registry, log


def disable() -> None:
    """Switch telemetry off: close the log, restore the null pair."""
    get_event_log().close()
    set_registry(NULL_REGISTRY)
    set_event_log(NULL_EVENT_LOG)


def finalise() -> None:
    """Snapshot metrics into the event log, then disable telemetry.

    This is the campaign-exit hook: after it, the JSONL file carries the
    full event stream followed by one ``kind="metric"`` line per
    instrument — a single self-contained telemetry artefact.
    """
    log = get_event_log()
    registry = get_registry()
    if log.enabled and registry.enabled:
        log.write_metrics(registry)
        log.emit("telemetry.finalise", n_events=log.n_emitted)
    disable()


def enabled() -> bool:
    """Whether a live (non-null) registry is installed."""
    return get_registry().enabled


def emit(kind: str, **fields) -> dict:
    """Emit an event through the process-wide log (no-op when disabled)."""
    return get_event_log().emit(kind, **fields)


def counter(name: str) -> Counter:
    """The process-wide counter ``name`` (a no-op when disabled)."""
    return get_registry().counter(name)


def gauge(name: str) -> Gauge:
    """The process-wide gauge ``name`` (a no-op when disabled)."""
    return get_registry().gauge(name)


def histogram(name: str) -> Histogram:
    """The process-wide histogram ``name`` (a no-op when disabled)."""
    return get_registry().histogram(name)
