"""Golden-trace conformance: replay the recorded corpus, twice.

Each file under ``tests/golden/`` pins one regime's full per-period
behaviour: the conformance facets of its controller (for DICER:
allocation, mode, event, flags, classification). The replay feeds the
recorded samples to *both* the production controller and the
paper-literal oracle named by the ``CONFORMANCE`` table and asserts every
recorded expectation against both — so a behaviour drift trips
regardless of which implementation it lands in, and the corpus doubles
as a third, human-reviewable reading of the contract.

The DICER scenarios are parametrised here, the LFOC and CBP ones in
``test_golden_zoo.py``; both replay through :func:`replay_golden`.
"""

from __future__ import annotations

import inspect
import json
import math
from pathlib import Path

import pytest

from repro.core.config import DicerConfig
from repro.core.dicer import DicerController
from repro.valid import reference
from repro.valid.differential import (
    CONFORMANCE,
    config_from_meta,
    sample_from_dict,
)
from repro.valid.record import (
    DEFAULT_OUT,
    SCENARIOS,
    main,
    record_corpus,
    render_scenario,
)

GOLDEN_DIR = Path(__file__).resolve().parents[1] / "golden"

#: Every structured decision kind the controller can emit; the corpus
#: must exercise all of them or a regression in an unexercised path
#: would slip through replay.
ALL_EVENTS = {
    "warmup",
    "shrink",
    "floor",
    "hold",
    "reset_ctf",
    "reset_ctt",
    "validate_ok",
    "validate_rollback",
    "validate_optimal",
    "sampling_start",
    "sampling_dwell",
    "sampling_probe",
    "sampling_conclude",
    "sampling_empty",
    "fault",
}


def scenario_names(config_type: type) -> list[str]:
    """The scenarios recorded for one controller, sorted."""
    return sorted(
        name
        for name, build in SCENARIOS.items()
        if type(build()[0]) is config_type
    )


def load_golden(name: str):
    """(config, total_ways, samples, period lines) of one golden file."""
    lines = [
        json.loads(line)
        for line in (GOLDEN_DIR / f"{name}.jsonl").read_text().splitlines()
        if line.strip()
    ]
    meta = lines[0]
    assert meta["kind"] == "meta"
    config = config_from_meta(meta)
    fields = CONFORMANCE[type(config)].sample_fields
    periods = [record for record in lines[1:] if record["kind"] == "period"]
    samples = [sample_from_dict(entry["sample"], fields) for entry in periods]
    return config, int(meta["total_ways"]), samples, periods


def replay_golden(name: str, *, side: str) -> None:
    """Assert one side (``controller`` or ``oracle``) matches the file."""
    config, total_ways, samples, periods = load_golden(name)
    entry = CONFORMANCE[type(config)]
    if side == "controller":
        controller = entry.controller(config, total_ways)
    else:
        oracle = entry.oracle(config, total_ways)
    for sample, line in zip(samples, periods):
        if side == "controller":
            controller.update(sample)
            facets = entry.controller_facets(controller)
        else:
            facets = entry.oracle_facets(oracle.update(sample))
        # JSON round trip: the file spells tuples as lists.
        got = json.loads(json.dumps(facets))
        assert got == line["expect"], (
            f"{name} period {line['period']}: {got} != {line['expect']}"
        )


def events_seen(config_type: type) -> set[str]:
    """Every ``expect.event`` the corpus records for one controller."""
    return {
        line["expect"]["event"]
        for name in scenario_names(config_type)
        for line in load_golden(name)[3]
    }


DICER_NAMES = scenario_names(DicerConfig)


class TestCorpusReplay:
    @pytest.mark.parametrize("name", DICER_NAMES)
    def test_controller_matches_golden(self, name):
        replay_golden(name, side="controller")

    @pytest.mark.parametrize("name", DICER_NAMES)
    def test_reference_matches_golden(self, name):
        replay_golden(name, side="oracle")

    def test_corpus_exercises_every_event_kind(self):
        assert events_seen(DicerConfig) == ALL_EVENTS

    def test_fault_storm_holds_allocation_and_history(self):
        """The fault scenario's held periods repeat the last allocation."""
        config, total_ways, samples, periods = load_golden("fault_storm")
        controller = DicerController(config, total_ways)
        last_ways = controller.initial_allocation().hp_ways
        for sample, entry in zip(samples, periods):
            allocation = controller.update(sample)
            if entry["expect"]["event"] == "fault":
                assert allocation.hp_ways == last_ways
            last_ways = allocation.hp_ways
            assert math.isfinite(allocation.hp_ways)
        assert all(
            math.isfinite(b) for b in controller._hp_bw_history
        )


class TestConformanceTable:
    def test_every_oracle_has_an_entry_and_every_entry_a_scenario(self):
        """Adding an oracle or a controller without the other trips here.

        The oracles are the classes of :mod:`repro.valid.reference` with
        an ``update`` method, less the ``ReferenceController`` facade
        (which wraps ``ReferenceDicer``).
        """
        oracles = {
            cls
            for _, cls in inspect.getmembers(reference, inspect.isclass)
            if cls.__module__ == reference.__name__
            and hasattr(cls, "update")
            and cls is not reference.ReferenceController
        }
        assert {entry.oracle for entry in CONFORMANCE.values()} == oracles
        for config_type in CONFORMANCE:
            assert scenario_names(config_type), config_type.__name__
        assert sum(map(len, map(scenario_names, CONFORMANCE))) == len(
            SCENARIOS
        )


class TestRecorder:
    def test_checked_in_corpus_is_current(self):
        """`python -m repro.valid.record --check` semantics, in-process.

        A red test here means a behaviour change touched the recorded
        regimes: re-run the recorder if the change is intentional.
        """
        assert record_corpus(GOLDEN_DIR, check=True) == []

    def test_default_out_is_the_checked_in_corpus(self):
        assert DEFAULT_OUT == Path("tests") / "golden"

    def test_render_is_byte_stable(self):
        name = sorted(SCENARIOS)[0]
        assert render_scenario(name) == render_scenario(name)

    def test_recorder_cli_round_trip(self, tmp_path, capsys):
        out = tmp_path / "golden"
        assert main(["--out", str(out)]) == 0
        assert "recorded" in capsys.readouterr().out
        assert sorted(p.stem for p in out.glob("*.jsonl")) == sorted(
            SCENARIOS
        )
        # Freshly recorded -> check passes, recording again is a no-op.
        assert main(["--out", str(out), "--check"]) == 0
        assert main(["--out", str(out)]) == 0
        assert "already current" in capsys.readouterr().out

    def test_recorder_check_flags_stale_corpus(self, tmp_path, capsys):
        out = tmp_path / "golden"
        main(["--out", str(out)])
        stale = out / "ctf_steady_shrink.jsonl"
        stale.write_text(stale.read_text().replace('"hp_ways": 5', '"hp_ways": 4'))
        capsys.readouterr()
        assert main(["--out", str(out), "--check"]) == 1
        assert "stale" in capsys.readouterr().out
        # --check must not rewrite anything.
        assert '"hp_ways": 4' in stale.read_text()
