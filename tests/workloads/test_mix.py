"""Unit tests for WorkloadMix construction."""

from dataclasses import replace

import pytest

from repro.workloads.app import AppModel
from repro.workloads.catalog import get_app
from repro.workloads.mix import (
    HeterogeneousMix,
    MultiHpMix,
    WorkloadMix,
    all_pairs,
    make_mix,
)


class TestMakeMix:
    def test_defaults(self):
        mix = make_mix("milc1", "gcc_base1")
        assert mix.n_be == 9
        assert mix.n_cores == 10
        assert mix.label == "milc1 gcc_base1"

    def test_apps_layout(self):
        mix = make_mix("milc1", "gcc_base1", n_be=3)
        apps = mix.apps()
        assert len(apps) == 4
        assert apps[0].name == "milc1"
        assert [a.name for a in apps[1:]] == [
            "gcc_base1#0",
            "gcc_base1#1",
            "gcc_base1#2",
        ]

    def test_be_clones_share_phase_objects(self):
        # Memoisation in the solver keys on phase identity.
        mix = make_mix("milc1", "gcc_base1", n_be=2)
        apps = mix.apps()
        assert apps[1].phases is apps[2].phases

    def test_hp_may_equal_be(self):
        mix = make_mix("milc1", "milc1", n_be=2)
        assert mix.apps()[0].name == "milc1"

    def test_unknown_names_rejected(self):
        with pytest.raises(KeyError):
            make_mix("nosuch", "milc1")

    def test_n_be_validated(self):
        with pytest.raises(ValueError):
            make_mix("milc1", "gcc_base1", n_be=0)


class TestAllPairs:
    def test_count_and_order(self):
        pairs = list(all_pairs(n_be=1))
        assert len(pairs) == 59 * 59
        assert pairs[0].hp.name == pairs[0].be.name  # (first, first)
        labels = [p.label for p in pairs]
        assert len(set(labels)) == len(labels)

    def test_n_be_propagates(self):
        mix = next(all_pairs(n_be=4))
        assert mix.n_be == 4


class TestCloneInterning:
    """Per-core clones are built once per (model, slot) and then shared."""

    @staticmethod
    def fresh(name):
        # A model no earlier test interned clones on.
        return replace(get_app(name))

    @staticmethod
    def count_clones(monkeypatch):
        made = []
        real = AppModel.with_name

        def spy(self, name):
            made.append((id(self), name))
            return real(self, name)

        monkeypatch.setattr(AppModel, "with_name", spy)
        return made

    def test_repeated_calls_return_the_same_clones(self):
        hp, be, other = (
            self.fresh(n) for n in ("milc1", "gcc_base1", "lbm1")
        )
        mixes = [
            WorkloadMix(hp=hp, be=be, n_be=3),
            HeterogeneousMix(hp=hp, bes=(be, other, be)),
            MultiHpMix(hps=(hp, be), bes=(be, other)),
        ]
        for mix in mixes:
            first, second = mix.apps(), mix.apps()
            assert len(first) == len(second)
            assert all(a is b for a, b in zip(first, second))

    def test_clones_equal_fresh_with_name_clones(self):
        hp, be = self.fresh("milc1"), self.fresh("gcc_base1")
        cases = [
            (WorkloadMix(hp=hp, be=be, n_be=3).apps()[1:], [be] * 3),
            (HeterogeneousMix(hp=hp, bes=(be, hp)).apps()[1:], [be, hp]),
            (MultiHpMix(hps=(hp,), bes=(be, be)).apps(), [hp, be, be]),
        ]
        for clones, models in cases:
            for k, (clone, model) in enumerate(zip(clones, models)):
                reference = model.with_name(f"{model.name}#{k}")
                assert clone == reference
                assert clone.name == reference.name
                assert clone.phases is model.phases
                assert hash(clone) == hash(reference)

    def test_multi_hp_keeps_its_be_numbering(self):
        mix = MultiHpMix(
            hps=(self.fresh("milc1"), self.fresh("lbm1")),
            bes=(self.fresh("gcc_base1"),) * 2,
        )
        assert [a.name for a in mix.apps()] == [
            "milc1#0", "lbm1#1", "gcc_base1#2", "gcc_base1#3",
        ]

    def test_with_name_called_once_per_model_and_slot(self, monkeypatch):
        made = self.count_clones(monkeypatch)
        hp, be = self.fresh("milc1"), self.fresh("gcc_base1")
        for n_be in (2, 5, 3, 5):
            WorkloadMix(hp=hp, be=be, n_be=n_be).apps()
        HeterogeneousMix(hp=hp, bes=(be, be)).apps()
        MultiHpMix(hps=(be,), bes=(be, be)).apps()
        assert len(made) == len(set(made)) == 5
        # Catalog mixes: at most one clone per slot over a whole campaign.
        made.clear()
        for _ in range(3):
            for be_name in ("lbm1", "milc1"):
                make_mix("gcc_base1", be_name, n_be=4).apps()
        assert len(made) == len(set(made)) <= 8
