"""The 59-entry application catalog.

Mirrors the paper's evaluation population: 9 Parsec 3.0 entries (serial
versions) plus 50 SPEC CPU 2006 entries (eight benchmarks contribute several
reference inputs — gcc×9, bzip2×6, gobmk×4, h264ref×3, hmmer/soplex/astar/
perlbench×2 — matching the names visible in the paper's Figure 5, e.g.
``gcc_base7``, ``bzip24``, ``milc1``).

Every entry is a synthetic :class:`~repro.workloads.app.AppModel` calibrated
per the archetype notes in :mod:`repro.workloads.archetypes`. Calibration
targets (checked by the integration tests and the Figure 2 campaign):

* ~half of the entries reach 99 % of their solo peak with <= 6 ways;
* ~90 % of the entries reach 90 % of their solo peak with <= 5 ways;
* streaming entries (milc, lbm, libquantum, ...) saturate a 68.3 Gbps link
  when several instances run nearly uncached;
* ~60 % of (HP, BE) pairs end up CT-Thwarted (paper Section 2.3.3).
"""

from __future__ import annotations

from functools import lru_cache

from repro.workloads.app import AppModel
from repro.workloads.archetypes import (
    cache_sensitive_app,
    compute_app,
    make_phase,
    phased_app,
    streaming_app,
)
from repro.workloads.mrc import ConstantMRC, ExponentialMRC

__all__ = ["catalog", "app_names", "get_app", "CATALOG_SIZE"]

#: Number of entries the catalog must expose (59 × 59 = 3481 pairs).
CATALOG_SIZE = 59


def _spec_singles() -> list[AppModel]:
    """SPEC entries with a single reference input (20 entries)."""
    return [
        # --- bandwidth-bound streaming ---------------------------------
        streaming_app("lbm1", miss_ratio=0.95, apki=25, cpi_exe=0.55,
                      blocking=0.18, write_frac=0.45, duration_s=26),
        streaming_app("libquantum1", miss_ratio=0.99, apki=21, cpi_exe=0.45,
                      blocking=0.15, write_frac=0.25, duration_s=26),
        streaming_app("milc1", miss_ratio=0.88, apki=20, cpi_exe=0.60,
                      blocking=0.28, write_frac=0.35, duration_s=30),
        streaming_app("leslie3d1", miss_ratio=0.90, apki=17, cpi_exe=0.50,
                      blocking=0.22, write_frac=0.40, duration_s=30),
        streaming_app("GemsFDTD1", miss_ratio=0.92, apki=19, cpi_exe=0.55,
                      blocking=0.22, write_frac=0.40, duration_s=30),
        streaming_app("bwaves1", miss_ratio=0.93, apki=18, cpi_exe=0.50,
                      blocking=0.20, write_frac=0.35, duration_s=32),
        cache_sensitive_app("zeusmp1", knee_ways=6, peak=0.85, floor=0.55,
                            apki=11, cpi_exe=0.60, blocking=0.40,
                            write_frac=0.4, duration_s=30, form="exp"),
        cache_sensitive_app("cactusADM1", knee_ways=6, peak=0.90, floor=0.60,
                            apki=12, cpi_exe=0.60, blocking=0.35,
                            write_frac=0.4, duration_s=32, form="exp"),
        # --- strongly cache-sensitive -----------------------------------
        cache_sensitive_app("mcf1", knee_ways=14, peak=0.95, floor=0.45,
                            sharpness=3.0, apki=30, cpi_exe=1.10,
                            blocking=0.75, duration_s=34, form="blend"),
        cache_sensitive_app("omnetpp1", knee_ways=10, peak=0.85, floor=0.20,
                            sharpness=2.0, apki=18, cpi_exe=0.90,
                            blocking=0.75, duration_s=30, form="blend"),
        cache_sensitive_app("Xalan1", knee_ways=11, peak=0.80, floor=0.15,
                            sharpness=2.5, apki=16, cpi_exe=0.85,
                            blocking=0.72, duration_s=30, form="blend"),
        cache_sensitive_app("sphinx1", knee_ways=4, peak=0.70, floor=0.25,
                            sharpness=1.5, apki=11, cpi_exe=0.80,
                            blocking=0.60, duration_s=28),
        # --- compute-bound ----------------------------------------------
        compute_app("namd1", miss_ratio=0.35, apki=1.2, cpi_exe=0.55,
                    duration_s=30),
        compute_app("povray1", miss_ratio=0.30, apki=0.8, cpi_exe=0.70,
                    duration_s=28),
        compute_app("gromacs1", miss_ratio=0.40, apki=1.8, cpi_exe=0.60,
                    duration_s=28),
        compute_app("calculix1", miss_ratio=0.45, apki=2.2, cpi_exe=0.55,
                    duration_s=30),
        compute_app("tonto1", miss_ratio=0.40, apki=2.6, cpi_exe=0.65,
                    duration_s=28),
        compute_app("gamess1", miss_ratio=0.30, apki=0.9, cpi_exe=0.60,
                    duration_s=30),
        cache_sensitive_app("sjeng1", knee_ways=1.5, peak=0.40, floor=0.30,
                            sharpness=1.0, apki=2.5, cpi_exe=0.95,
                            blocking=0.9, duration_s=28),
        # wrf: phased — a streaming physics step alternating with a
        # compute-heavy radiation step (exercises DICER's phase reset).
        phased_app("wrf1", [
            make_phase("physics", duration_s=9, cpi_exe=0.60, apki=9,
                       mrc=ExponentialMRC(peak=0.80, floor=0.45, scale=1.5),
                       blocking=0.45, write_frac=0.4),
            make_phase("radiation", duration_s=7, cpi_exe=0.55, apki=3,
                       mrc=ConstantMRC(0.40), blocking=0.7, write_frac=0.2),
            make_phase("physics2", duration_s=9, cpi_exe=0.60, apki=9,
                       mrc=ExponentialMRC(peak=0.80, floor=0.45, scale=1.5),
                       blocking=0.45, write_frac=0.4),
        ]),
    ]


def _spec_multi_input() -> list[AppModel]:
    """SPEC entries from the eight multi-input benchmarks (30 entries)."""
    apps: list[AppModel] = []

    # gcc: nine inputs with spread-out working sets and intensities. The
    # paper's Figure 3 BE is gcc — moderately cache-hungry, bandwidth-heavy
    # when squeezed into a sliver of cache.
    # Input 6 is the "reference" input the paper's Figure 3 pairs with
    # milc: hungry enough that nine squeezed instances saturate the link
    # (>50 Gbps under CT), yet satisfied by ~2 ways each when given room.
    gcc_params = [
        # (knee, apki, floor, duration)
        (2.0, 5.0, 0.20, 22), (3.0, 5.5, 0.22, 24), (4.0, 6.0, 0.18, 24),
        (5.0, 6.5, 0.20, 26), (6.0, 7.0, 0.22, 26), (3.0, 12.0, 0.10, 26),
        (3.5, 6.0, 0.15, 24), (8.0, 9.0, 0.25, 28), (9.0, 10.0, 0.28, 28),
    ]
    for i, (knee, apki, floor, dur) in enumerate(gcc_params, start=1):
        if i == 4:
            # One phased input: front-end (small footprint) then middle-end
            # optimisation passes (bigger footprint, more LLC traffic).
            apps.append(phased_app(f"gcc_base{i}", [
                make_phase("parse", duration_s=dur * 0.4, cpi_exe=0.9,
                           apki=4.0,
                           mrc=ExponentialMRC(peak=0.50, floor=0.2, scale=(2.0) / 2.0),
                           blocking=0.8, write_frac=0.3),
                make_phase("optimise", duration_s=dur * 0.6, cpi_exe=0.95,
                           apki=apki,
                           mrc=ExponentialMRC(peak=0.58, floor=floor, scale=(knee + 2) / 2.0),
                           blocking=0.8, write_frac=0.3),
            ]))
        else:
            peak = 0.68 if i == 6 else 0.55
            apps.append(cache_sensitive_app(
                f"gcc_base{i}", knee_ways=knee, peak=peak, floor=floor,
                sharpness=1.5, apki=apki, cpi_exe=0.9, blocking=0.6,
                duration_s=dur))

    # bzip2: six inputs, small working sets; input 3 alternates
    # compress/decompress phases with different LLC intensity.
    bzip_params = [(2.0, 4.0, 22), (2.5, 4.5, 22), (3.0, 5.0, 24),
                   (3.5, 5.5, 24), (4.0, 6.0, 26), (5.0, 7.0, 26)]
    for i, (knee, apki, dur) in enumerate(bzip_params, start=1):
        if i == 3:
            apps.append(phased_app(f"bzip2{i}", [
                make_phase("compress", duration_s=dur * 0.5, cpi_exe=0.85,
                           apki=apki,
                           mrc=ExponentialMRC(peak=0.45, floor=0.2, scale=(knee) / 2.0),
                           blocking=0.75, write_frac=0.3),
                make_phase("decompress", duration_s=dur * 0.5, cpi_exe=0.80,
                           apki=apki * 0.45,
                           mrc=ExponentialMRC(peak=0.40, floor=0.18, scale=(knee * 0.6) / 2.0),
                           blocking=0.75, write_frac=0.25),
            ]))
        else:
            apps.append(cache_sensitive_app(
                f"bzip2{i}", knee_ways=knee, peak=0.45, floor=0.20,
                sharpness=1.0, apki=apki, cpi_exe=0.85, blocking=0.6,
                duration_s=dur))

    # gobmk: four inputs, branchy compute with tiny LLC appetite.
    for i, (knee, apki) in enumerate(
            [(1.5, 2.0), (1.8, 2.4), (2.0, 2.8), (2.5, 3.5)], start=1):
        apps.append(cache_sensitive_app(
            f"gobmk{i}", knee_ways=knee, peak=0.38, floor=0.25,
            sharpness=1.0, apki=apki, cpi_exe=1.0, blocking=0.8,
            duration_s=24))

    # h264ref: three inputs; input 2 is phased (I-frame vs P-frame heavy).
    h264_params = [(1.5, 3.0), (2.0, 4.0), (3.0, 5.0)]
    for i, (knee, apki) in enumerate(h264_params, start=1):
        if i == 2:
            apps.append(phased_app(f"h264ref{i}", [
                make_phase("iframe", duration_s=10, cpi_exe=0.70, apki=apki,
                           mrc=ExponentialMRC(peak=0.38, floor=0.15, scale=(knee) / 2.0),
                           blocking=0.7, write_frac=0.3),
                make_phase("pframe", duration_s=14, cpi_exe=0.65, apki=apki * 0.5,
                           mrc=ExponentialMRC(peak=0.32, floor=0.12, scale=(knee * 0.7) / 2.0),
                           blocking=0.7, write_frac=0.25),
            ]))
        else:
            apps.append(cache_sensitive_app(
                f"h264ref{i}", knee_ways=knee, peak=0.38, floor=0.15,
                sharpness=1.0, apki=apki, cpi_exe=0.68, blocking=0.55,
                duration_s=24))

    # hmmer / soplex / astar / perlbench: two inputs each.
    apps.append(compute_app("hmmer1", miss_ratio=0.30, apki=1.5, cpi_exe=0.50,
                            duration_s=24))
    apps.append(compute_app("hmmer2", miss_ratio=0.35, apki=2.0, cpi_exe=0.50,
                            duration_s=26))
    apps.append(cache_sensitive_app("soplex1", knee_ways=5, peak=0.75,
                                    floor=0.30, sharpness=1.5, apki=12,
                                    cpi_exe=0.80, blocking=0.65,
                                    duration_s=28))
    apps.append(cache_sensitive_app("soplex2", knee_ways=9, peak=0.80,
                                    floor=0.30, sharpness=2.0, apki=16,
                                    cpi_exe=0.80, blocking=0.75,
                                    duration_s=30, form="blend"))
    apps.append(cache_sensitive_app("astar1", knee_ways=4, peak=0.70,
                                    floor=0.30, sharpness=1.5, apki=9,
                                    cpi_exe=1.00, blocking=0.8,
                                    duration_s=28))
    apps.append(cache_sensitive_app("astar2", knee_ways=8, peak=0.75,
                                    floor=0.30, sharpness=2.0, apki=12,
                                    cpi_exe=1.00, blocking=0.8,
                                    duration_s=30, form="blend"))
    apps.append(cache_sensitive_app("perlbench1", knee_ways=3.5, peak=0.40,
                                    floor=0.20, sharpness=1.2, apki=4.0,
                                    cpi_exe=0.85, blocking=0.8,
                                    duration_s=26))
    apps.append(cache_sensitive_app("perlbench2", knee_ways=5, peak=0.42,
                                    floor=0.20, sharpness=1.5, apki=5.0,
                                    cpi_exe=0.85, blocking=0.8,
                                    duration_s=28))
    return apps


def _parsec() -> list[AppModel]:
    """Parsec 3.0 entries, serial versions (9 entries)."""
    return [
        compute_app("blackscholes1", suite="parsec", miss_ratio=0.25,
                    apki=0.5, cpi_exe=0.50, duration_s=20),
        cache_sensitive_app("bodytrack1", suite="parsec", knee_ways=2.5,
                            peak=0.40, floor=0.20, sharpness=1.0, apki=4,
                            cpi_exe=0.75, blocking=0.6, duration_s=22),
        cache_sensitive_app("canneal1", suite="parsec", knee_ways=10,
                            peak=0.85, floor=0.50, apki=13, cpi_exe=1.00,
                            blocking=0.8, duration_s=28, form="blend"),
        cache_sensitive_app("dedup1", suite="parsec", knee_ways=4, peak=0.50,
                            floor=0.25, sharpness=1.2, apki=8, cpi_exe=0.80,
                            blocking=0.65, duration_s=22),
        # ferret: pipelined similarity search — three stages with distinct
        # footprints, a natural phase-change stressor.
        phased_app("ferret1", [
            make_phase("segment", duration_s=7, cpi_exe=0.80, apki=6,
                       mrc=ExponentialMRC(peak=0.55, floor=0.25, scale=(3) / 2.0),
                       blocking=0.8, write_frac=0.3),
            make_phase("extract", duration_s=8, cpi_exe=0.70, apki=9,
                       mrc=ExponentialMRC(peak=0.65, floor=0.25, scale=(5) / 2.0),
                       blocking=0.8, write_frac=0.3),
            make_phase("rank", duration_s=9, cpi_exe=0.90, apki=7,
                       mrc=ExponentialMRC(peak=0.60, floor=0.30, scale=2.5),
                       blocking=0.85, write_frac=0.25),
        ], suite="parsec"),
        cache_sensitive_app("fluidanimate1", suite="parsec", knee_ways=4,
                            peak=0.48, floor=0.30, apki=5, cpi_exe=0.70,
                            blocking=0.55, duration_s=22, form="exp"),
        streaming_app("streamcluster1", suite="parsec", miss_ratio=0.95,
                      apki=20, cpi_exe=0.50, blocking=0.22, write_frac=0.3,
                      duration_s=22),
        compute_app("swaptions1", suite="parsec", miss_ratio=0.20, apki=0.3,
                    cpi_exe=0.50, duration_s=20),
        cache_sensitive_app("x2641", suite="parsec", knee_ways=2, peak=0.38,
                            floor=0.20, sharpness=1.0, apki=3.5, cpi_exe=0.65,
                            blocking=0.55, duration_s=22),
    ]


@lru_cache(maxsize=1)
def catalog() -> dict[str, AppModel]:
    """The full 59-entry catalog, keyed by entry name.

    Cached: models are immutable, so every caller shares one instance.
    """
    apps = _spec_singles() + _spec_multi_input() + _parsec()
    by_name: dict[str, AppModel] = {}
    for app in apps:
        if app.name in by_name:
            raise RuntimeError(f"duplicate catalog entry {app.name!r}")
        by_name[app.name] = app
    if len(by_name) != CATALOG_SIZE:
        raise RuntimeError(
            f"catalog has {len(by_name)} entries, expected {CATALOG_SIZE}"
        )
    return by_name


def app_names() -> list[str]:
    """Catalog entry names in deterministic (insertion) order."""
    return list(catalog().keys())


def get_app(name: str) -> AppModel:
    """Look up a catalog entry; raises ``KeyError`` with suggestions."""
    apps = catalog()
    try:
        return apps[name]
    except KeyError:
        close = [n for n in apps if n.startswith(name[:4])]
        raise KeyError(
            f"unknown application {name!r}; similar entries: {close[:5]}"
        ) from None
