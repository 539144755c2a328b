"""Related-work shoot-out (paper Section 5, extended): the policy zoo.

The original comparison pitted DICER against DCP-QoS (DICER without
bandwidth-saturation detection). The zoo generalises it into a
six-policy head-to-head — UM / CT / S10 / DICER / LFOC / CBP — over

* the classic 1-HP grid (one HP, nine BE instances), executed through
  :class:`~repro.experiments.store.ResultStore` two ways — serial and
  multi-process — with the artefact digests asserted identical (the
  campaign-determinism contract of DESIGN.md §7 and §11);
* new multi-HP mixes (:func:`~repro.experiments.runner.run_multi`),
  where the headline is the *worst* co-equal HP's normalised IPC —
  LFOC's fairness target — asserted repeat-stable.

DCP-QoS keeps its historical three-pair table below the shoot-out so the
paper's novelty claim stays measurable.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

from conftest import PRECISION, publish

from repro.core.dcpqos import DcpQosPolicy
from repro.core.policies import CacheTakeoverPolicy, DicerPolicy
from repro.experiments.backends import open_backend
from repro.experiments.classify import shootout
from repro.experiments.grid import zoo_policies
from repro.experiments.runner import run_multi, run_pair
from repro.experiments.store import ResultStore
from repro.util.tables import format_table
from repro.workloads.mix import make_mix, make_multi_mix

PAIRS = (
    ("milc1", "gcc_base6"),   # CT-T: saturation is the whole story
    ("lbm1", "gcc_base8"),    # CT-T: streaming HP
    ("omnetpp1", "bzip22"),   # CT-F: both should match CT
)

#: Multi-HP mixes: co-equal HPs plus best-effort fillers.
MULTI_MIXES = (
    (("omnetpp1", "milc1"), ("bzip22", "bzip22")),
    (("omnetpp1", "mcf1", "lbm1"), ("gcc_base6",)),
    (("milc1", "lbm1"), ("bzip22", "gcc_base6", "gcc_base8")),
)


def _grid_digest(tmpdir: Path, name: str, *, workers: int) -> str:
    """Artefact digest of the 1-HP shoot-out under one execution mode."""
    path = tmpdir / name
    store = ResultStore(
        cache_path=path,
        n_workers=workers,
        precision=PRECISION,
    )
    shootout(store, PAIRS, zoo_policies())
    store.save()
    return open_backend(path).digest()


def _multi_rows():
    rows = []
    for hp_names, be_names in MULTI_MIXES:
        mix = make_multi_mix(hp_names, be_names)
        for policy in zoo_policies():
            r = run_multi(mix, policy, precision=PRECISION)
            rows.append(
                [mix.label, r.policy, r.min_hp_norm_ipc, r.efu]
            )
    return rows


def _rows_digest(rows) -> str:
    payload = json.dumps(rows, sort_keys=True, default=float)
    return hashlib.sha256(payload.encode()).hexdigest()


def bench_policy_zoo(benchmark):
    def run():
        # -- 1-HP shoot-out: serial == processes ------------------------
        with tempfile.TemporaryDirectory() as tmp:
            tmpdir = Path(tmp)
            d_serial = _grid_digest(tmpdir, "serial.json", workers=1)
            d_procs = _grid_digest(tmpdir, "procs.json", workers=2)
        assert d_serial == d_procs, (
            "policy-zoo campaign not digest-stable across worker counts: "
            f"serial={d_serial} processes={d_procs}"
        )

        store = ResultStore(precision=PRECISION)
        rows = []
        for row in shootout(store, PAIRS, zoo_policies()):
            for policy, norm, efu_val in zip(
                row.policies, row.hp_norm_ipcs, row.efus
            ):
                rows.append(
                    [f"{row.hp_name}+{row.be_name}", policy, norm, efu_val]
                )
        table_1hp = format_table(
            ["Workload", "Policy", "HP norm IPC", "EFU"],
            rows,
            title=(
                "Policy zoo, 1-HP grid "
                f"(digest-stable: {d_serial[:12]})"
            ),
        )

        # -- multi-HP shoot-out: repeat-stable -------------------------
        multi_rows = _multi_rows()
        assert _rows_digest(multi_rows) == _rows_digest(_multi_rows()), (
            "multi-HP shoot-out not repeat-stable"
        )
        table_multi = format_table(
            ["Mix", "Policy", "min HP norm IPC", "EFU"],
            multi_rows,
            title="Policy zoo, multi-HP mixes (worst co-equal HP)",
        )
        return table_1hp + "\n\n" + table_multi

    publish("policy_zoo", benchmark.pedantic(run, rounds=1, iterations=1))


def bench_related_work(benchmark):
    def run():
        rows = []
        for hp, be in PAIRS:
            mix = make_mix(hp, be, n_be=9)
            for policy in (
                CacheTakeoverPolicy(), DcpQosPolicy(), DicerPolicy()
            ):
                r = run_pair(mix, policy, precision=PRECISION)
                rows.append(
                    [f"{hp}+{be}", r.policy, r.hp_norm_ipc, r.be_norm_ipc, r.efu]
                )
        return format_table(
            ["Workload", "Policy", "HP norm IPC", "BE norm IPC", "EFU"],
            rows,
            title="Related work: CT vs DCP-QoS vs DICER",
        )

    publish("related_work", benchmark.pedantic(run, rounds=1, iterations=1))
