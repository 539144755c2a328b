"""Differential conformance driver: controller vs. paper-literal oracle.

Feeds one synthetic RDT telemetry stream — a list of
:class:`~repro.rdt.sample.PeriodSample` — to a production controller and
to its paper-literal oracle in :mod:`repro.valid.reference`, and compares
every period. One table, :data:`CONFORMANCE`, keyed by config type, says
which pair to build and which *facets* of a period to compare:

* DICER (:class:`~repro.core.config.DicerConfig`) against
  ``ReferenceDicer``: HP way count, ``event``, mode, the saturation and
  phase-change flags, and the CT-F/CT-T classification;
* LFOC (:class:`~repro.core.lfoc.LfocConfig`) against ``ReferenceLfoc``:
  event, per-core classes, cluster membership and way split;
* CBP (:class:`~repro.core.cbp.CbpConfig`) against ``ReferenceCbp``:
  event, HP way count, both ladder indices and the saturation flag.

Any mismatch is a conformance bug in one of the two implementations.
Adding a controller is one more table entry.

Divergent streams are dumped as **replayable JSONL traces**: a ``meta``
line carrying the full config, the way count and (except for DICER,
whose layout predates the other controllers) the entry's ``controller``
tag, one ``sample`` line per period, and one ``divergence`` line per
mismatch. ``replay_trace(path)`` re-runs the exact stream — the
debugging loop for a shrunk hypothesis counterexample is::

    result = replay_trace("divergences/abc123.jsonl")
    print(result.report())

:class:`ScriptedRdt` additionally exposes any recorded stream through the
:class:`~repro.rdt.interface.RdtBackend` surface, so traces can also be
replayed through the full control-loop harness (``repro.rdt.harness``).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.core.allocation import Allocation
from repro.core.cbp import CbpConfig, CbpController
from repro.core.config import DicerConfig, TABLE1_DICER_CONFIG
from repro.core.dicer import DicerController
from repro.core.lfoc import LfocConfig, LfocController
from repro.rdt.interface import RdtBackend
from repro.rdt.sample import PeriodSample
from repro.valid.reference import ReferenceCbp, ReferenceDicer, ReferenceLfoc

__all__ = [
    "CONFORMANCE",
    "Conformance",
    "Divergence",
    "DifferentialResult",
    "ScriptedRdt",
    "config_from_meta",
    "run_differential",
    "dump_trace",
    "load_trace",
    "replay_trace",
    "sample_to_dict",
    "sample_from_dict",
]

#: Trace file schema version (bump on incompatible format changes).
TRACE_VERSION = 1

#: Aggregate sample fields every trace serialises, in order.
_AGGREGATE_FIELDS = (
    "duration_s",
    "hp_ipc",
    "hp_mem_bytes_s",
    "total_mem_bytes_s",
    "hp_llc_occupancy_bytes",
)

#: The aggregates plus the per-core arrays the multi-class controllers read.
_PER_CORE_FIELDS = _AGGREGATE_FIELDS + (
    "core_ipcs",
    "core_mem_bytes_s",
    "core_occupancy_ways",
)


@dataclass(frozen=True)
class Conformance:
    """How one controller is checked against its oracle.

    ``controller_facets`` reads the facets of the period just run off the
    controller (its last trace record, plus any state the record does
    not carry); ``oracle_facets`` reads the same facets, in the same
    order, off the oracle's decision. The golden corpus records the
    controller's facets as each period's ``expect`` block.
    """

    controller: Callable
    oracle: Callable
    #: ``controller`` meta key of traces and golden files (None: absent).
    tag: str | None
    #: Sample fields serialised into trace and golden lines, in order.
    sample_fields: tuple[str, ...]
    controller_facets: Callable[[object], dict]
    oracle_facets: Callable[[object], dict]


def _dicer_facets(controller: DicerController) -> dict:
    record = controller.trace[-1]
    return {
        "hp_ways": record.allocation.hp_ways,
        "event": record.event,
        "mode": record.mode.value,
        "saturated": record.saturated,
        "phase_change": record.phase_change,
        "ct_favoured": controller.ct_favoured,
    }


def _reference_dicer_facets(decision) -> dict:
    return {
        "hp_ways": decision.hp_ways,
        "event": decision.event,
        "mode": decision.mode,
        "saturated": decision.saturated,
        "phase_change": decision.phase_change,
        "ct_favoured": decision.ct_favoured,
    }


def _lfoc_facets(record) -> dict:
    return {
        "event": record.event,
        "classes": record.classes,
        "groups": record.groups,
        "ways": record.ways,
    }


def _cbp_facets(record) -> dict:
    return {
        "event": record.event,
        "hp_ways": record.hp_ways,
        "mba_idx": record.mba_idx,
        "prefetch_idx": record.prefetch_idx,
        "saturated": record.saturated,
    }


#: The conformance table: one entry per controller, keyed by config type.
CONFORMANCE: dict[type, Conformance] = {
    DicerConfig: Conformance(
        controller=DicerController,
        oracle=ReferenceDicer,
        tag=None,
        sample_fields=_AGGREGATE_FIELDS,
        controller_facets=_dicer_facets,
        oracle_facets=_reference_dicer_facets,
    ),
    LfocConfig: Conformance(
        controller=LfocController,
        oracle=ReferenceLfoc,
        tag="lfoc",
        sample_fields=_PER_CORE_FIELDS,
        controller_facets=lambda c: _lfoc_facets(c.trace[-1]),
        oracle_facets=_lfoc_facets,
    ),
    CbpConfig: Conformance(
        controller=CbpController,
        oracle=ReferenceCbp,
        tag="cbp",
        sample_fields=_PER_CORE_FIELDS,
        controller_facets=lambda c: _cbp_facets(c.trace[-1]),
        oracle_facets=_cbp_facets,
    ),
}


@dataclass(frozen=True)
class Divergence:
    """One per-period disagreement between controller and oracle."""

    period: int
    facet: str
    controller: object
    reference: object

    def __str__(self) -> str:
        return (
            f"period {self.period}: {self.facet} diverged — "
            f"controller={self.controller!r} reference={self.reference!r}"
        )


@dataclass(frozen=True)
class DifferentialResult:
    """Outcome of one differential run."""

    n_periods: int
    divergences: tuple[Divergence, ...]
    #: JSONL trace written for a divergent stream (``None`` otherwise).
    trace_path: Path | None = None
    #: The controller's and the oracle's per-period records.
    controller_trace: tuple = ()
    reference_trace: tuple = ()

    @property
    def ok(self) -> bool:
        """True when every period matched."""
        return not self.divergences

    def report(self) -> str:
        """Human-readable summary (used in assertion messages)."""
        if self.ok:
            return f"conformant over {self.n_periods} periods"
        lines = [
            f"{len(self.divergences)} divergence(s) over "
            f"{self.n_periods} periods"
        ]
        lines += [str(d) for d in self.divergences[:10]]
        if self.trace_path is not None:
            lines.append(f"replayable trace: {self.trace_path}")
        return "\n".join(lines)


class ScriptedRdt(RdtBackend):
    """An :class:`RdtBackend` that replays a pre-recorded sample stream.

    The measurement half returns the scripted samples verbatim (one per
    ``sample`` call); the allocation half records every ``apply`` so tests
    can assert on the actuation sequence. ``finished`` turns true when the
    script runs out.
    """

    def __init__(self, samples: Iterable[PeriodSample], total_ways: int = 20):
        self._samples = list(samples)
        self._next = 0
        self._total_ways = total_ways
        self.applied: list[Allocation] = []

    @property
    def total_ways(self) -> int:
        """Way count the scripted stream was recorded against."""
        return self._total_ways

    @property
    def finished(self) -> bool:
        """True once every scripted sample has been consumed."""
        return self._next >= len(self._samples)

    def apply(self, allocation: Allocation) -> None:
        """Record the actuation (scripted streams have no real cache)."""
        self.applied.append(allocation)

    def sample(self, period_s: float) -> PeriodSample:
        """Return the next scripted sample."""
        if self.finished:
            raise RuntimeError("scripted stream exhausted")
        sample = self._samples[self._next]
        self._next += 1
        return sample


def run_differential(
    samples: Sequence[PeriodSample],
    *,
    config=TABLE1_DICER_CONFIG,
    total_ways: int = 20,
    dump_dir: Path | str | None = None,
) -> DifferentialResult:
    """Drive ``config``'s controller and its oracle over ``samples``.

    The controller is picked by ``type(config)`` from :data:`CONFORMANCE`
    and every period's facets are compared. When the oracle states an
    initial allocation, it must match the controller's before any
    sample. When ``dump_dir`` is given and the stream diverges, a
    replayable JSONL trace is written there (content-addressed filename)
    and referenced from the result.
    """
    entry = CONFORMANCE[type(config)]
    controller = entry.controller(config, total_ways)
    oracle = entry.oracle(config, total_ways)
    if hasattr(oracle, "initial_hp_ways") and (
        controller.initial_allocation().hp_ways != oracle.initial_hp_ways()
    ):
        raise AssertionError("initial allocations differ before any sample")

    divergences: list[Divergence] = []
    for sample in samples:
        controller.update(sample)
        theirs = entry.oracle_facets(oracle.update(sample))
        period = controller.trace[-1].period
        divergences.extend(
            Divergence(period, facet, ours, theirs[facet])
            for facet, ours in entry.controller_facets(controller).items()
            if ours != theirs[facet]
        )

    trace_path = None
    if divergences and dump_dir is not None:
        trace_path = dump_trace(
            dump_dir,
            samples,
            config=config,
            total_ways=total_ways,
            divergences=divergences,
        )
    return DifferentialResult(
        n_periods=len(samples),
        divergences=tuple(divergences),
        trace_path=trace_path,
        controller_trace=tuple(controller.trace),
        reference_trace=tuple(oracle.trace),
    )


# -- replayable JSONL traces ------------------------------------------------


def sample_to_dict(sample: PeriodSample, fields: Sequence[str]) -> dict:
    """Serialise ``fields`` of one sample (tuples as lists, order fixed)."""
    out = {}
    for name in fields:
        value = getattr(sample, name)
        out[name] = list(value) if isinstance(value, tuple) else value
    return out


def sample_from_dict(record: dict, fields: Sequence[str]) -> PeriodSample:
    """Rebuild a sample from ``fields`` of a trace line (lists as tuples)."""
    missing = [name for name in fields if name not in record]
    if missing:
        raise ValueError(f"sample line missing {missing}")
    return PeriodSample(
        **{
            name: tuple(record[name])
            if isinstance(record[name], list)
            else record[name]
            for name in fields
        }
    )


def config_from_meta(meta: dict):
    """The config a trace or golden ``meta`` line records.

    The ``controller`` tag picks the config type; every list in the
    recorded config comes back as a tuple.
    """
    tag = meta.get("controller")
    for config_type, entry in CONFORMANCE.items():
        if entry.tag == tag:
            raw = {
                name: tuple(value) if isinstance(value, list) else value
                for name, value in meta["config"].items()
            }
            return config_type(**raw)
    raise ValueError(f"unknown controller {tag!r}")


def trace_meta(config, total_ways: int, **extra) -> dict:
    """The ``meta`` line of a trace or golden file for ``config``."""
    meta = {
        "kind": "meta",
        "version": TRACE_VERSION,
        "total_ways": total_ways,
        "config": asdict(config),
        **extra,
    }
    tag = CONFORMANCE[type(config)].tag
    if tag is not None:
        meta["controller"] = tag
    return meta


def dump_trace(
    dump_dir: Path | str,
    samples: Sequence[PeriodSample],
    *,
    config,
    total_ways: int,
    divergences: Sequence[Divergence] = (),
) -> Path:
    """Write a replayable JSONL trace; returns the file path.

    The filename is the entry's tag (if any) and the first 12 hex chars
    of the SHA-256 of the meta + sample lines, so identical
    counterexamples dedupe naturally.
    """
    entry = CONFORMANCE[type(config)]
    lines = [json.dumps(trace_meta(config, total_ways), sort_keys=True)]
    for period, sample in enumerate(samples, start=1):
        lines.append(
            json.dumps(
                {
                    "kind": "sample",
                    "period": period,
                    **sample_to_dict(sample, entry.sample_fields),
                },
                sort_keys=True,
            )
        )
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()[:12]
    for divergence in divergences:
        lines.append(
            json.dumps(
                {
                    "kind": "divergence",
                    "period": divergence.period,
                    "facet": divergence.facet,
                    "controller": divergence.controller,
                    "reference": divergence.reference,
                },
                sort_keys=True,
                default=str,
            )
        )
    dump_dir = Path(dump_dir)
    dump_dir.mkdir(parents=True, exist_ok=True)
    prefix = "divergence-" if entry.tag is None else f"divergence-{entry.tag}-"
    path = dump_dir / f"{prefix}{digest}.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


def load_trace(path: Path | str) -> tuple[object, int, list[PeriodSample]]:
    """Parse a trace file back into (config, total_ways, samples).

    The config's type says which controller the trace is for.
    """
    config = None
    total_ways: int | None = None
    samples: list[PeriodSample] = []
    for line in Path(path).read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        record = json.loads(line)
        kind = record.get("kind")
        if kind == "meta":
            if record.get("version") != TRACE_VERSION:
                raise ValueError(
                    f"trace version {record.get('version')!r} unsupported "
                    f"(expected {TRACE_VERSION})"
                )
            config = config_from_meta(record)
            total_ways = int(record["total_ways"])
        elif kind == "sample":
            if config is None:
                raise ValueError(
                    f"{path}: no meta line — not a differential trace"
                )
            fields = CONFORMANCE[type(config)].sample_fields
            try:
                samples.append(sample_from_dict(record, fields))
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from None
    if config is None or total_ways is None:
        raise ValueError(f"{path}: no meta line — not a differential trace")
    return config, total_ways, samples


def replay_trace(path: Path | str) -> DifferentialResult:
    """Re-run the differential comparison recorded in a trace file."""
    config, total_ways, samples = load_trace(path)
    return run_differential(samples, config=config, total_ways=total_ways)
