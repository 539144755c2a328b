"""Regression guards: solver-mode handling on the campaign path.

``--precision`` is the only solver setting: it defaults to ``fast`` and
is stamped into the shared store, which refuses to merge a result cache
written under the other mode. The retired ``--kernel`` flag is refused
at argument parsing, so an old script fails loudly instead of silently
running under a mode it did not ask for.
"""

from __future__ import annotations

import pytest

from repro.core.policies import UnmanagedPolicy
from repro.experiments.cli import main
from repro.experiments.store import ResultStore


def _seed_store(store_db, precision: str) -> None:
    seed = ResultStore(
        cache_path=store_db, precision=precision, backend="sqlite"
    )
    seed.get("omnetpp1", "bzip22", UnmanagedPolicy(), n_be=1)
    seed.save()


class TestCampaignModeGuard:
    def test_retired_kernel_flag_is_refused(self, tmp_path):
        with pytest.raises(SystemExit) as info:
            main([
                "campaign",
                "--queue", str(tmp_path / "q.db"),
                "--store", str(tmp_path / "results.db"),
                "--kernel", "exact",
            ])
        assert info.value.code == 2  # argparse usage error

    def test_precision_defaults_to_fast(self, tmp_path):
        store_db = tmp_path / "results.db"
        _seed_store(store_db, "exact")
        with pytest.raises(SystemExit, match="refusing to merge"):
            main([
                "campaign",
                "--queue", str(tmp_path / "q.db"),
                "--store", str(store_db),
                "--limit", "2", "--cores", "3",
                "--worker-id", "w1",
            ])


class TestCrossModeStoreLoad:
    def test_campaign_refuses_store_from_the_other_mode(self, tmp_path):
        store_db = tmp_path / "results.db"
        _seed_store(store_db, "exact")

        with pytest.raises(SystemExit, match="refusing to merge"):
            main([
                "campaign",
                "--queue", str(tmp_path / "q.db"),
                "--store", str(store_db),
                "--limit", "2", "--cores", "3",
                "--precision", "fast",
                "--worker-id", "w1",
            ])

    def test_matching_mode_store_loads_fine(self, tmp_path, capsys):
        store_db = tmp_path / "results.db"
        _seed_store(store_db, "fast")

        assert main([
            "campaign",
            "--queue", str(tmp_path / "q.db"),
            "--store", str(store_db),
            "--limit", "2", "--cores", "3",
            "--precision", "fast",
            "--enqueue-only", "--worker-id", "prod",
        ]) == 0
        assert "enqueued" in capsys.readouterr().out
