"""Bit-for-bit pins on the runner's results, trace included.

``run_custom`` and ``run_multi`` under every queueable policy family (UM,
CT, DICER, MBA-DICER, LFOC, CBP) at both precisions, plus ``run_pair``
under DICER and under a static ``S<k>`` split, and exact 10-core
``run_pair`` runs of LFOC, CBP and DICER behind a multi-phase HP (the
period loop at the core count where NumPy's pairwise sums differ from a
sequential sum). Each pin is
the SHA-256 of the result's ``repr`` (floats repr round-trip exactly), so
any change to the sequence of operations the runner performs on its
Server — an extra apply, a dropped knob, a reordered normalisation —
moves a digest. The bench digests cover only exact ``run_pair`` /
``run_multi`` for DICER, LFOC and CBP and fast UM/CT/DICER pairs.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.cbp import CbpPolicy
from repro.core.lfoc import LfocPolicy
from repro.core.mba import MbaDicerPolicy
from repro.core.policies import (
    CacheTakeoverPolicy,
    DicerPolicy,
    StaticPolicy,
    UnmanagedPolicy,
)
from repro.experiments.runner import run_custom, run_multi, run_pair
from repro.workloads.catalog import get_app
from repro.workloads.mix import HeterogeneousMix, make_mix, make_multi_mix

POLICIES = {
    "UM": UnmanagedPolicy,
    "CT": CacheTakeoverPolicy,
    "DICER": DicerPolicy,
    "MBA-DICER": MbaDicerPolicy,
    "LFOC": LfocPolicy,
    "CBP": CbpPolicy,
}

CUSTOM_MIX = HeterogeneousMix(
    hp=get_app("omnetpp1"),
    bes=tuple(
        get_app(n) for n in ("lbm1", "milc1", "bzip22", "lbm1", "namd1")
    ),
)
MULTI_MIX = make_multi_mix(("omnetpp1", "milc1"), ("lbm1", "bzip22", "lbm1"))
PAIR_MIX = make_mix("omnetpp1", "lbm1", n_be=9)
#: Exact 10-core pairs per controller: (HP, BE, policy). None of them is
#: a query the exact solver cannot converge on.
TEN_CORE_PAIRS = {
    "LFOC": ("omnetpp1", "lbm1", LfocPolicy),
    "CBP": ("omnetpp1", "lbm1", CbpPolicy),
    "DICER-multiphase": ("wrf1", "lbm1", DicerPolicy),
}

PINS = {
    ("custom", "UM", "exact"):
        "615de73fc29328ea1c13f892a0602c93d3afa53684385f411f0d036ded540dbe",
    ("multi", "UM", "exact"):
        "2629f15a45a51b30da92226c8986cc1634d9d368d3ee6f34db3b88e0a3843fde",
    ("custom", "CT", "exact"):
        "d113c73ac35be41e3df7ee57615975d7e22b04a28a0692246dce0589f24a1a10",
    ("multi", "CT", "exact"):
        "b30e112fc9a49ad247811dfd03bcf23387b73d2c02f5a38a695126198ffff63c",
    ("custom", "DICER", "exact"):
        "2cadef84058ba800ee9914d039ec96f5a205bfc64db39acf61972a60947f9624",
    ("multi", "DICER", "exact"):
        "14df5aa140487277f4b19c965d5d9a28e88342e3c1f7ff8ea0a4fb8c7ca80c78",
    ("custom", "MBA-DICER", "exact"):
        "49cc7e511160c26a5187be47a13ecdb409c0fe0aa17040e1e58f128fd9f61d69",
    ("multi", "MBA-DICER", "exact"):
        "31319790b32506bc1ec54246744f4a84deeaaf0647bedb24d00ed83525e27467",
    ("custom", "LFOC", "exact"):
        "b02e3b7fcf7a8c538b1c885b3bfa6be38a552ba85841bccd0ff47aa0e27b5cfb",
    ("multi", "LFOC", "exact"):
        "786c229bbf8c060e0c5a35190254e76a7655f771ffa329cb600ac5089b348914",
    ("custom", "CBP", "exact"):
        "d468cd41a368c3f6f2b4127d0e3683d65cf73a490ca124b66d97a86575a80338",
    ("multi", "CBP", "exact"):
        "62a6050c355a41cc709aded4ee3c5674bb82ead17cbc6d33915d3f7e7f84b6e7",
    ("pair", "DICER", "exact"):
        "f2c1d1fa6cc453e1e0ffbe9ed022d1d8d6a747e96fcb7e52cd550755258fe84d",
    ("pair", "S6", "exact"):
        "8c8a54986d22d2f69d71134b6adf6c41eb88324a956f60e0daf1301a70b1783d",
    ("custom", "UM", "fast"):
        "6f5b234afaddc80bbec8b6f5123a31f659a5eb4aa9708b10b18b67a739cd6bcf",
    ("multi", "UM", "fast"):
        "e5db928ec400661a34dbf43d330558360e5e987700f3d35cd7b1a5d22f10b9a7",
    ("custom", "CT", "fast"):
        "124df50ced3c1cb5b29059f3b32ee657474bf65f15ad69834bcc5e281e81379a",
    ("multi", "CT", "fast"):
        "fded7bd457d931a6a985d8e0ed19465ce6bf35c67fdf8e2a628768fef2cdd6fc",
    ("custom", "DICER", "fast"):
        "e21f90e43e119080cf209f9e21e3177f2cfc516c824be307432562b611667449",
    ("multi", "DICER", "fast"):
        "5a9d70caf2b7902d05451f74aa720a80be9af73074d4e26539f95c3ba4ceb2c3",
    ("custom", "MBA-DICER", "fast"):
        "bc17a95ff16734262b35eadfe05e533206159a53227af17a0cf40dbeb7028d98",
    ("multi", "MBA-DICER", "fast"):
        "7c0728f12b30242457d5837a193fafa83e179bbc23d6e0d02bd01a73e4e75a8e",
    ("custom", "LFOC", "fast"):
        "f3a68b0e860d2c96c802eff4013097cbf1f11849b27ae2e9ff102ea9ce1abdef",
    ("multi", "LFOC", "fast"):
        "4ffd319404b339eec0c1701250e49ce689796c63ffed31547c18de43d484964c",
    ("custom", "CBP", "fast"):
        "97933253da3ecd07eca8f43a83a591a10325f087de94dc6f23f29b8e0ddffc96",
    ("multi", "CBP", "fast"):
        "499e34685f3899c2fb5abbf8a5171c45a9f8e12fbf90b8ed662b1180c45682d8",
    ("pair", "DICER", "fast"):
        "8b75fac4c6eae68e1dfca4665598b3c620e1ca3b0abf99f61bceeaefc3304d45",
    ("pair", "S6", "fast"):
        "7a1ec34530c0602f7e7dc79245284ef23f0ba2d9ff398993ebe0b49d266b525e",
    ("pair", "LFOC", "exact"):
        "102770698e18581ca326c762339154f4457be8926003806273f96a966c20f453",
    ("pair", "CBP", "exact"):
        "a85aaef1e3d6e100f74e9515d602252ec73c78de0594086ba690c598e613aecf",
    ("pair", "DICER-multiphase", "exact"):
        "b5b62271c5cf4e9679c1c886a0781cc77b85b5416f4f57a3f92eb74946ae4227",
}


def _digest(result) -> str:
    return hashlib.sha256(repr(result).encode()).hexdigest()


@pytest.mark.parametrize("precision", ["exact", "fast"])
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize(
    "kind, run, mix",
    [("custom", run_custom, CUSTOM_MIX), ("multi", run_multi, MULTI_MIX)],
    ids=["custom", "multi"],
)
def test_custom_and_multi_pinned(kind, run, mix, policy, precision):
    result = run(mix, POLICIES[policy](), precision=precision)
    assert _digest(result) == PINS[(kind, policy, precision)]


@pytest.mark.parametrize("precision", ["exact", "fast"])
def test_pair_dicer_pinned(precision):
    result = run_pair(PAIR_MIX, DicerPolicy(), precision=precision)
    assert _digest(result) == PINS[("pair", "DICER", precision)]


@pytest.mark.parametrize("precision", ["exact", "fast"])
def test_pair_static_split_pinned(precision):
    result = run_pair(PAIR_MIX, StaticPolicy(6), precision=precision)
    assert _digest(result) == PINS[("pair", "S6", precision)]


@pytest.mark.parametrize("name", sorted(TEN_CORE_PAIRS))
def test_ten_core_pair_pinned(name):
    hp, be, policy = TEN_CORE_PAIRS[name]
    result = run_pair(make_mix(hp, be, n_be=9), policy(), precision="exact")
    assert _digest(result) == PINS[("pair", name, "exact")]
