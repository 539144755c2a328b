"""Golden-trace corpus recorder (``python -m repro.valid.record``).

Each *scenario* is a deterministic, hand-built telemetry stream driving
one controller through one regime: for DICER, CT-Favoured steady
shrinking, an Equation-2 phase change, a bandwidth-saturation sampling
sweep (CT-Thwarted), a failed revalidation that re-samples and a fault
storm; for LFOC and CBP, the clustering and coordination regimes of the
policy zoo. Recording runs the scenario's controller (picked by the
config's type from :data:`~repro.valid.differential.CONFORMANCE`) over
the stream and writes one JSONL file per scenario under
``tests/golden/``:

* line 1 — ``meta``: scenario name, schema version, config, way count
  and, except for DICER, the conformance entry's ``controller`` tag;
* then one line per period: the ``sample`` fed in and the ``expect``
  block, the controller's conformance facets for that period.

The replay test (``tests/valid/test_golden.py``) feeds the recorded
samples to *both* the controller and the paper-literal oracle and asserts
every expectation still holds — so a behaviour change that slips past the
unit suite still trips conformance. Regenerate after an *intentional*
behaviour change with::

    python -m repro.valid.record            # rewrites tests/golden/
    python -m repro.valid.record --check    # verify without writing
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable, Sequence

from repro.core.cbp import CbpConfig
from repro.core.config import DicerConfig
from repro.core.lfoc import LfocConfig
from repro.rdt.sample import PeriodSample
from repro.valid.differential import (
    CONFORMANCE,
    sample_to_dict,
    trace_meta,
)

__all__ = [
    "SCENARIOS",
    "render_scenario",
    "record_corpus",
    "main",
]

#: What a scenario builder returns: (config, total_ways, samples).
Scenario = tuple[object, int, list[PeriodSample]]

#: Default corpus location, relative to the repository root.
DEFAULT_OUT = Path("tests") / "golden"

#: 2 GB/s — comfortably under the Table-1 50 Gbps (6.25 GB/s) threshold.
_CALM_BW = 2e9
#: 8 GB/s — above the threshold: the memory link reads as saturated.
_SATURATED_BW = 8e9


def _calm(ipc: float, *, bw: float = _CALM_BW) -> PeriodSample:
    return PeriodSample(
        duration_s=1.0,
        hp_ipc=ipc,
        hp_mem_bytes_s=bw,
        total_mem_bytes_s=bw + 1e9,
        hp_llc_occupancy_bytes=4e6,
    )


def _saturated(ipc: float) -> PeriodSample:
    return PeriodSample(
        duration_s=1.0,
        hp_ipc=ipc,
        hp_mem_bytes_s=3e9,
        total_mem_bytes_s=_SATURATED_BW,
        hp_llc_occupancy_bytes=4e6,
    )


def _scenario_ctf_steady_shrink() -> Scenario:
    """Stable IPC, calm link: DICER donates a way per period to the floor."""
    config = DicerConfig(sample_hp_ways=(5, 3, 1))
    return config, 6, [_calm(1.0) for _ in range(9)]


def _scenario_ctf_phase_reset() -> Scenario:
    """A >30 % HP bandwidth jump: Equation-2 reset, then validation."""
    config = DicerConfig(sample_hp_ways=(5, 3, 1))
    stream = [_calm(1.0) for _ in range(4)]
    # Bandwidth jumps 2x against the 3-period geomean -> phase change.
    stream.append(_calm(0.8, bw=2 * _CALM_BW))
    # Validation period: IPC does not beat the trigger -> rollback.
    stream.append(_calm(0.8, bw=2 * _CALM_BW))
    stream += [_calm(0.8, bw=2 * _CALM_BW) for _ in range(3)]
    return config, 6, stream


def _scenario_ctt_sampling_sweep() -> Scenario:
    """Link saturation: CT-Thwarted reclassification and a full sweep."""
    config = DicerConfig(sample_hp_ways=(5, 3, 1), sample_periods=2)
    # Probe scores peak at the middle of the grid (hp=3).
    ipc_by_period = [1.0, 0.6, 0.6, 0.9, 0.9, 0.7, 0.7, 0.9, 0.9, 0.9]
    return config, 6, [_saturated(ipc) for ipc in ipc_by_period]


def _scenario_ctt_revalidate_resample() -> Scenario:
    """A CT-T reset whose validation fails, forcing a second sweep."""
    config = DicerConfig(
        sample_hp_ways=(5, 3, 1), resample_cooldown_periods=2
    )
    stream = [_saturated(ipc) for ipc in (1.0, 0.6, 0.9, 0.7)]  # sweep
    stream += [_calm(0.9), _calm(0.9)]  # settle at the optimum
    stream += [_calm(0.5)]  # degraded -> reset to optimal (CT-T)
    stream += [_calm(0.4)]  # validation fails ipc_opt band -> resample
    stream += [_calm(0.6), _calm(0.7), _calm(0.9)]  # second sweep
    stream += [_calm(0.9), _calm(0.9)]
    return config, 6, stream


def _scenario_ctf_validate_ok() -> Scenario:
    """A degraded-IPC CT-F reset that validation confirms (validate_ok)."""
    config = DicerConfig(sample_hp_ways=(5, 3, 1))
    stream = [_calm(1.0), _calm(1.0), _calm(1.0)]  # warmup + shrinks
    stream += [_calm(0.5)]  # degraded -> reset to CT
    stream += [_calm(0.7)]  # 0.7 > 1.05 * 0.5: the reset helped
    stream += [_calm(0.7), _calm(0.7)]
    return config, 6, stream


def _scenario_ctt_validate_optimal() -> Scenario:
    """A CT-T reset whose validation lands back at the optimum."""
    config = DicerConfig(sample_hp_ways=(5, 3, 1))
    stream = [_saturated(ipc) for ipc in (1.0, 0.6, 0.9, 0.7)]  # sweep
    stream += [_calm(0.9), _calm(0.9)]  # settle at the optimum
    stream += [_calm(0.5)]  # degraded -> reset to optimal (CT-T)
    stream += [_calm(0.9)]  # 0.9 >= 0.95 * ipc_opt: validated
    stream += [_calm(0.9), _calm(0.9)]
    return config, 6, stream


def _scenario_sampling_empty_guard() -> Scenario:
    """Saturation with a grid no probe of which fits the small cache."""
    config = DicerConfig(
        sample_hp_ways=(19,), resample_cooldown_periods=3
    )
    return config, 6, [_saturated(1.0) for _ in range(9)]


def _scenario_fault_storm() -> Scenario:
    """Wrap / zero-dt / stale / nonfinite reads interleaved with calm ones."""
    config = DicerConfig(sample_hp_ways=(5, 3, 1))
    wrap = PeriodSample(
        duration_s=1.0,
        hp_ipc=1.0 * 2**32,
        hp_mem_bytes_s=_CALM_BW * 2**32,
        total_mem_bytes_s=_CALM_BW * 2**32,
    )
    zero_dt = PeriodSample(
        duration_s=1e-12,
        hp_ipc=1.0,
        hp_mem_bytes_s=_CALM_BW,
        total_mem_bytes_s=_CALM_BW,
    )
    stale = PeriodSample(
        duration_s=1.0,
        hp_ipc=0.0,
        hp_mem_bytes_s=0.0,
        total_mem_bytes_s=0.0,
    )
    nonfinite = PeriodSample(
        duration_s=1.0,
        hp_ipc=float("inf"),
        hp_mem_bytes_s=_CALM_BW,
        total_mem_bytes_s=_CALM_BW,
    )
    return config, 6, [
        _calm(1.0),
        wrap,
        _calm(1.0),
        zero_dt,
        _calm(1.0),
        stale,
        nonfinite,
        _calm(1.0),
        _calm(1.0),
    ]


# -- LFOC and CBP scenarios --------------------------------------------------
#
# Same corpus, different controllers: these pin the per-period behaviour of
# the LFOC clustering loop and the CBP coordination ladder.

#: 2.0 GB/s per core — above the 1.5 GB/s (12 Gbps) streaming threshold.
_STREAM_CORE_BW = 2.0e9
#: 0.8 GB/s per core — between the light and streaming thresholds.
_SENSITIVE_CORE_BW = 0.8e9
#: 0.05 GB/s per core — below the 0.125 GB/s (1 Gbps) light threshold.
_LIGHT_CORE_BW = 0.05e9


def _per_core(
    bw: Sequence[float], occ: Sequence[float]
) -> PeriodSample:
    """A period with per-core telemetry (aggregates derived from core 0)."""
    return PeriodSample(
        duration_s=1.0,
        hp_ipc=1.0,
        hp_mem_bytes_s=bw[0],
        total_mem_bytes_s=sum(bw),
        core_ipcs=tuple(1.0 for _ in bw),
        core_mem_bytes_s=tuple(bw),
        core_occupancy_ways=tuple(occ),
    )


def _scenario_lfoc_mixed_recluster() -> Scenario:
    """Streams + a light + sensitives; one core migrates class mid-run."""
    config = LfocConfig(recluster_periods=3)
    bw = [
        _STREAM_CORE_BW,
        _STREAM_CORE_BW,
        _LIGHT_CORE_BW,
        _SENSITIVE_CORE_BW,
        _SENSITIVE_CORE_BW,
        _SENSITIVE_CORE_BW,
    ]
    occ = [1.0, 1.0, 0.5, 6.0, 4.0, 2.0]
    stream = [_per_core(bw, occ) for _ in range(3)]  # warmup x2, cluster
    # Core 5 turns into a streamer: the next re-evaluation reclusters.
    bw2 = list(bw)
    bw2[5] = _STREAM_CORE_BW
    stream += [_per_core(bw2, occ) for _ in range(3)]  # hold x2, recluster
    stream += [_per_core(bw2, occ) for _ in range(3)]  # hold x2, hold
    return config, 20, stream


def _scenario_lfoc_no_sensitive() -> Scenario:
    """Only streams and lights: leftover ways join the light cluster."""
    config = LfocConfig()
    bw = [_STREAM_CORE_BW, _STREAM_CORE_BW, _LIGHT_CORE_BW, _LIGHT_CORE_BW]
    occ = [1.0, 1.0, 0.5, 0.5]
    return config, 20, [_per_core(bw, occ) for _ in range(5)]


def _scenario_lfoc_fault_storm() -> Scenario:
    """Empty / mismatched / non-finite per-core reads stay inert."""
    config = LfocConfig()
    bw = [_SENSITIVE_CORE_BW, _SENSITIVE_CORE_BW, _LIGHT_CORE_BW]
    occ = [5.0, 3.0, 0.5]
    good = _per_core(bw, occ)
    no_cores = PeriodSample(
        duration_s=1.0,
        hp_ipc=1.0,
        hp_mem_bytes_s=bw[0],
        total_mem_bytes_s=sum(bw),
    )
    mismatched = PeriodSample(
        duration_s=1.0,
        hp_ipc=1.0,
        hp_mem_bytes_s=bw[0],
        total_mem_bytes_s=sum(bw),
        core_ipcs=(1.0, 1.0, 1.0),
        core_mem_bytes_s=(bw[0],),
        core_occupancy_ways=(5.0, 3.0, 0.5),
    )
    nonfinite = PeriodSample(
        duration_s=1.0,
        hp_ipc=1.0,
        hp_mem_bytes_s=bw[0],
        total_mem_bytes_s=sum(bw),
        core_ipcs=(1.0, 1.0, 1.0),
        core_mem_bytes_s=(float("inf"), bw[1], bw[2]),
        core_occupancy_ways=(5.0, 3.0, 0.5),
    )
    return config, 20, [
        good,
        no_cores,
        good,
        mismatched,
        good,
        nonfinite,
        good,
    ]


def _cbp_calm(ipc: float) -> PeriodSample:
    return PeriodSample(
        duration_s=1.0,
        hp_ipc=ipc,
        hp_mem_bytes_s=_CALM_BW,
        total_mem_bytes_s=_CALM_BW + 1e9,
    )


def _cbp_saturated(ipc: float) -> PeriodSample:
    return PeriodSample(
        duration_s=1.0,
        hp_ipc=ipc,
        hp_mem_bytes_s=3e9,
        total_mem_bytes_s=_SATURATED_BW,
    )


def _scenario_cbp_escalate_relax() -> Scenario:
    """Both ladders up under saturation, then back down once calm.

    ``min_hp_ways`` pins the partition at its start size so the relax
    branch exercises the MBA and prefetch rungs instead of donating ways.
    """
    config = CbpConfig(
        bw_threshold_bytes=6e9,
        mba_levels=(1.0, 0.5),
        prefetch_ladder=(0.0, 1.0),
        relax_periods=2,
        min_hp_ways=10,
    )
    stream = [_cbp_calm(1.0), _cbp_calm(1.0)]  # warmup
    stream += [_cbp_saturated(1.0)]  # throttle_prefetch
    stream += [_cbp_saturated(1.0)]  # throttle_mba
    stream += [_cbp_saturated(1.0)]  # saturated_hold
    stream += [_cbp_calm(1.0)]  # hold (calm 1)
    stream += [_cbp_calm(1.0)]  # relax_mba (ways pinned at the floor)
    stream += [_cbp_calm(1.0)]  # hold
    stream += [_cbp_calm(1.0)]  # relax_prefetch
    stream += [_cbp_calm(1.0)]  # hold
    return config, 20, stream


def _scenario_cbp_ways_adapt() -> Scenario:
    """IPC sag grows the HP partition; recovery donates ways back."""
    config = CbpConfig(bw_threshold_bytes=6e9, relax_periods=2)
    stream = [_cbp_calm(1.0), _cbp_calm(1.0)]  # warmup (best = 1.0)
    stream += [_cbp_calm(0.8)]  # unstable -> grow_ways
    stream += [_cbp_calm(0.8)]  # still unstable -> grow_ways
    stream += [_cbp_calm(1.0)]  # recovered -> hold (calm 1)
    stream += [_cbp_calm(1.0)]  # stable relax -> shrink_ways
    stream += [_cbp_calm(1.0)]  # hold
    stream += [_cbp_calm(1.0)]  # shrink_ways
    return config, 20, stream


def _scenario_cbp_fault_storm() -> Scenario:
    """Non-finite aggregates are inert; the loop resumes around them."""
    config = CbpConfig(bw_threshold_bytes=6e9)
    bad_duration = PeriodSample(
        duration_s=float("nan"),
        hp_ipc=1.0,
        hp_mem_bytes_s=_CALM_BW,
        total_mem_bytes_s=_CALM_BW,
    )
    bad_ipc = PeriodSample(
        duration_s=1.0,
        hp_ipc=float("inf"),
        hp_mem_bytes_s=_CALM_BW,
        total_mem_bytes_s=_CALM_BW,
    )
    bad_bw = PeriodSample(
        duration_s=1.0,
        hp_ipc=1.0,
        hp_mem_bytes_s=_CALM_BW,
        total_mem_bytes_s=float("nan"),
    )
    return config, 20, [
        _cbp_calm(1.0),
        bad_duration,
        _cbp_calm(1.0),
        bad_ipc,
        bad_bw,
        _cbp_calm(1.0),
        _cbp_calm(1.0),
    ]


SCENARIOS: dict[str, Callable[[], Scenario]] = {
    "ctf_steady_shrink": _scenario_ctf_steady_shrink,
    "ctf_phase_reset": _scenario_ctf_phase_reset,
    "ctf_validate_ok": _scenario_ctf_validate_ok,
    "ctt_sampling_sweep": _scenario_ctt_sampling_sweep,
    "ctt_revalidate_resample": _scenario_ctt_revalidate_resample,
    "ctt_validate_optimal": _scenario_ctt_validate_optimal,
    "sampling_empty_guard": _scenario_sampling_empty_guard,
    "fault_storm": _scenario_fault_storm,
    "lfoc_mixed_recluster": _scenario_lfoc_mixed_recluster,
    "lfoc_no_sensitive": _scenario_lfoc_no_sensitive,
    "lfoc_fault_storm": _scenario_lfoc_fault_storm,
    "cbp_escalate_relax": _scenario_cbp_escalate_relax,
    "cbp_ways_adapt": _scenario_cbp_ways_adapt,
    "cbp_fault_storm": _scenario_cbp_fault_storm,
}


def render_scenario(name: str) -> str:
    """The golden JSONL content for one scenario (byte-stable)."""
    config, total_ways, samples = SCENARIOS[name]()
    entry = CONFORMANCE[type(config)]
    controller = entry.controller(config, total_ways)
    lines = [
        json.dumps(
            trace_meta(config, total_ways, scenario=name), sort_keys=True
        )
    ]
    for sample in samples:
        controller.update(sample)
        lines.append(
            json.dumps(
                {
                    "kind": "period",
                    "period": controller.trace[-1].period,
                    "sample": sample_to_dict(sample, entry.sample_fields),
                    "expect": entry.controller_facets(controller),
                },
                sort_keys=True,
            )
        )
    return "\n".join(lines) + "\n"


def record_corpus(out_dir: Path, *, check: bool = False) -> list[str]:
    """Write (or, with ``check``, verify) every scenario's golden file.

    Returns the names of scenarios whose files changed (or would change).
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    changed = []
    for name in sorted(SCENARIOS):
        path = out_dir / f"{name}.jsonl"
        content = render_scenario(name)
        if path.exists() and path.read_text() == content:
            continue
        changed.append(name)
        if not check:
            path.write_text(content)
    return changed


def main(argv: Sequence[str] | None = None) -> int:
    """CLI: regenerate or verify the golden corpus."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.valid.record",
        description="Record/verify the controller golden-trace corpus.",
    )
    parser.add_argument(
        "--out",
        type=Path,
        default=DEFAULT_OUT,
        help=f"corpus directory (default: {DEFAULT_OUT})",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="verify the corpus is current instead of rewriting it "
        "(exit 1 when stale)",
    )
    args = parser.parse_args(argv)
    changed = record_corpus(args.out, check=args.check)
    if args.check:
        if changed:
            print(f"stale golden traces: {', '.join(changed)}")
            return 1
        print(
            "golden corpus current "
            f"({len(SCENARIOS)} scenarios)"
        )
        return 0
    if changed:
        print(f"recorded: {', '.join(changed)}")
    else:
        print(
            "golden corpus already current "
            f"({len(SCENARIOS)} scenarios)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
