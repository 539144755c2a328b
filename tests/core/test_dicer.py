"""State-machine tests for the DICER controller (paper Listings 1-3).

The controller is driven directly with synthetic samples, so every branch
of the listings is pinned down without simulator noise.
"""

import pytest

from repro import obs
from repro.core.allocation import Allocation
from repro.core.config import DicerConfig
from repro.core.dicer import ControllerMode, DicerController
from repro.rdt.sample import PeriodSample

QUIET = 10e9 / 8  # 10 Gbps in bytes/s — far below the threshold
SATURATED = 55e9 / 8  # 55 Gbps — above the 50 Gbps threshold


def sample(ipc=0.5, total_bw=QUIET, hp_bw=2e9):
    return PeriodSample(
        duration_s=1.0,
        hp_ipc=ipc,
        hp_mem_bytes_s=hp_bw,
        total_mem_bytes_s=total_bw,
    )


def controller(**config_kwargs) -> DicerController:
    config = DicerConfig(
        sample_hp_ways=config_kwargs.pop("grid", (15, 8, 2)),
        **config_kwargs,
    )
    return DicerController(config, total_ways=20)


class TestInitialState:
    def test_starts_like_ct(self):
        c = controller()
        assert c.initial_allocation() == Allocation.cache_takeover(20)
        assert c.ct_favoured is True
        assert c.mode is ControllerMode.WARMUP

    def test_total_ways_validated(self):
        with pytest.raises(ValueError):
            DicerController(DicerConfig(), total_ways=1)


class TestOptimisation:
    """Listing 2 branches."""

    def test_warmup_consumes_one_period(self):
        c = controller()
        allocation = c.update(sample(ipc=0.5))
        assert allocation.hp_ways == 19  # unchanged
        assert c.mode is ControllerMode.OPTIMISE

    def test_stable_ipc_donates_one_way(self):
        c = controller()
        c.update(sample(ipc=0.5))  # warmup
        allocation = c.update(sample(ipc=0.51))  # within 5 %
        assert allocation.hp_ways == 18
        allocation = c.update(sample(ipc=0.50))
        assert allocation.hp_ways == 17

    def test_stable_ipc_stops_at_floor(self):
        c = controller()
        c.update(sample())
        for _ in range(25):
            allocation = c.update(sample())
        assert allocation.hp_ways == 1
        assert allocation.be_ways == 19

    def test_improved_ipc_holds(self):
        c = controller()
        c.update(sample(ipc=0.5))
        allocation = c.update(sample(ipc=0.6))  # +20 % >> alpha
        assert allocation.hp_ways == 19
        assert c.mode is ControllerMode.OPTIMISE

    def test_degraded_ipc_resets(self):
        c = controller()
        c.update(sample(ipc=0.5))
        c.update(sample(ipc=0.5))  # shrink to 18
        allocation = c.update(sample(ipc=0.4))  # -20 %
        assert c.mode is ControllerMode.RESET_VALIDATE
        assert allocation.hp_ways == 19  # CT-F reset -> back to CT


class TestResetValidation:
    """Listing 3, CT-Favoured branch."""

    def _degrade(self, c):
        c.update(sample(ipc=0.5))
        c.update(sample(ipc=0.5))  # 18
        c.update(sample(ipc=0.5))  # 17
        return c.update(sample(ipc=0.4))  # reset -> CT

    def test_reset_helped_keeps_ct(self):
        c = controller()
        self._degrade(c)
        allocation = c.update(sample(ipc=0.5))  # improved over 0.4
        assert allocation.hp_ways == 19
        assert c.mode is ControllerMode.OPTIMISE

    def test_reset_did_not_help_rolls_back(self):
        c = controller()
        self._degrade(c)
        # IPC still 0.4: the drop was a phase effect, not the allocation.
        allocation = c.update(sample(ipc=0.4))
        assert allocation.hp_ways == 17  # rollback to the pre-reset point
        assert c.mode is ControllerMode.OPTIMISE

    def test_saturation_during_validation_starts_sampling(self):
        c = controller()
        self._degrade(c)
        c.update(sample(ipc=0.4, total_bw=SATURATED))
        assert c.mode is ControllerMode.SAMPLING
        assert c.ct_favoured is False


class TestSampling:
    """Section 3.2.1."""

    def test_saturation_triggers_sampling(self):
        c = controller()
        allocation = c.update(sample(total_bw=SATURATED))
        assert c.mode is ControllerMode.SAMPLING
        assert c.ct_favoured is False
        assert allocation.hp_ways == 15  # first grid point applied

    def test_grid_walk_and_argmax(self):
        c = controller()
        c.update(sample(total_bw=SATURATED))  # apply 15
        c.update(sample(ipc=0.40))  # scores 15, applies 8
        c.update(sample(ipc=0.55))  # scores 8, applies 2
        allocation = c.update(sample(ipc=0.45))  # scores 2, concludes
        assert c.mode is ControllerMode.OPTIMISE
        assert allocation.hp_ways == 8  # argmax over {15:0.40, 8:0.55, 2:0.45}
        assert c.ipc_opt == pytest.approx(0.55)
        assert c.optimal.hp_ways == 8

    def test_dwell_periods(self):
        c = controller(sample_periods=2, grid=(8, 2))
        c.update(sample(total_bw=SATURATED))  # applies 8, dwell=2
        a = c.update(sample(ipc=0.3))  # dwell 1 left, no record
        assert a.hp_ways == 8
        a = c.update(sample(ipc=0.5))  # records 8 -> 0.5, applies 2
        assert a.hp_ways == 2
        c.update(sample(ipc=0.2))
        a = c.update(sample(ipc=0.3))  # records 2 -> 0.3, concludes
        assert a.hp_ways == 8

    def test_cooldown_suppresses_resampling(self):
        c = controller(resample_cooldown_periods=3, grid=(8, 2))
        c.update(sample(total_bw=SATURATED))
        c.update(sample(ipc=0.5))
        c.update(sample(ipc=0.4))  # concludes, optimal=8, cooldown=3
        assert c.mode is ControllerMode.OPTIMISE
        c.update(sample(ipc=0.5, total_bw=SATURATED))
        assert c.mode is not ControllerMode.SAMPLING  # cooldown holds

    def test_resampling_after_cooldown(self):
        c = controller(resample_cooldown_periods=1, grid=(8, 2))
        c.update(sample(total_bw=SATURATED))
        c.update(sample(ipc=0.5))
        c.update(sample(ipc=0.4))  # concludes; cooldown=1
        c.update(sample(ipc=0.5, total_bw=SATURATED))  # suppressed
        c.update(sample(ipc=0.5, total_bw=SATURATED))  # triggers again
        assert c.mode is ControllerMode.SAMPLING


class TestCtThwartedReset:
    """Listing 3, CT-Thwarted branch."""

    def _sampled(self, c):
        c.update(sample(total_bw=SATURATED))
        c.update(sample(ipc=0.40))
        c.update(sample(ipc=0.55))
        c.update(sample(ipc=0.45))  # optimal = 8, ipc_opt = 0.55
        return c

    def test_degrade_resets_to_optimal(self):
        c = self._sampled(controller(resample_cooldown_periods=0))
        c.update(sample(ipc=0.55))  # post-sampling period (stable: shrink 7)
        allocation = c.update(sample(ipc=0.30))  # big drop -> reset
        assert allocation.hp_ways == 8
        assert c.mode is ControllerMode.RESET_VALIDATE

    def test_validation_near_opt_proceeds(self):
        c = self._sampled(controller(resample_cooldown_periods=0))
        c.update(sample(ipc=0.55))
        c.update(sample(ipc=0.30))  # reset to optimal
        c.update(sample(ipc=0.54))  # within alpha of ipc_opt
        assert c.mode is ControllerMode.OPTIMISE

    def test_validation_far_from_opt_resamples(self):
        c = self._sampled(controller(resample_cooldown_periods=0))
        c.update(sample(ipc=0.55))
        c.update(sample(ipc=0.30))  # reset to optimal
        c.update(sample(ipc=0.30))  # nowhere near ipc_opt
        assert c.mode is ControllerMode.SAMPLING


class TestPhaseDetection:
    """Equation 2."""

    def test_needs_three_periods_of_history(self):
        c = controller()
        c.update(sample(hp_bw=1e9))
        c.update(sample(hp_bw=1e9))
        # Only two history entries: a bandwidth jump must NOT reset yet.
        c.update(sample(hp_bw=9e9))
        assert c.mode is ControllerMode.OPTIMISE

    def test_bandwidth_jump_resets(self):
        c = controller()
        for _ in range(4):
            c.update(sample(hp_bw=1e9))
        c.update(sample(hp_bw=2e9))  # 2x > 1.3x geomean
        assert c.mode is ControllerMode.RESET_VALIDATE
        assert c.trace[-1].phase_change is True

    def test_sub_threshold_jump_ignored(self):
        c = controller()
        for _ in range(4):
            c.update(sample(hp_bw=1e9))
        c.update(sample(hp_bw=1.2e9))  # +20 % < 30 % threshold
        assert c.mode is ControllerMode.OPTIMISE
        assert c.trace[-1].phase_change is False

    def test_history_cleared_after_sampling(self):
        c = controller(grid=(8, 2), resample_cooldown_periods=0)
        for _ in range(3):
            c.update(sample(hp_bw=1e9))
        c.update(sample(total_bw=SATURATED, hp_bw=1e9))
        c.update(sample(ipc=0.5, hp_bw=8e9))
        c.update(sample(ipc=0.4, hp_bw=8e9))  # concludes sampling
        # Next period's high HP bandwidth must not be misread as a phase
        # change against the pre-sampling history.
        c.update(sample(ipc=0.4, hp_bw=8e9))
        assert c.trace[-1].phase_change is False


class TestTrace:
    def test_every_update_recorded(self):
        c = controller()
        for i in range(5):
            c.update(sample())
        assert len(c.trace) == 5
        assert [r.period for r in c.trace] == [1, 2, 3, 4, 5]

    def test_trace_notes_informative(self):
        c = controller()
        c.update(sample())
        c.update(sample())
        assert "warmup" in c.trace[0].note
        assert "shrink" in c.trace[1].note


class TestEwmaPhaseDetector:
    def _controller(self, weight=0.3):
        config = DicerConfig(
            phase_detector="ewma", ewma_weight=weight, grid=None
        ) if False else DicerConfig(
            phase_detector="ewma",
            ewma_weight=weight,
            sample_hp_ways=(15, 8, 2),
        )
        return DicerController(config, total_ways=20)

    def test_first_period_never_triggers(self):
        c = self._controller()
        c.update(sample(hp_bw=9e9))
        assert c.trace[-1].phase_change is False

    def test_jump_over_baseline_triggers(self):
        c = self._controller()
        for _ in range(4):
            c.update(sample(hp_bw=1e9))
        c.update(sample(hp_bw=2e9))
        assert c.trace[-1].phase_change is True

    def test_smaller_weight_remembers_longer(self):
        # After the bandwidth steps up, a low-weight EWMA baseline stays
        # near the old level, so the new level keeps reading as a phase
        # change even two periods later; a high-weight EWMA has absorbed
        # it by then. (The first high sample triggers a reset whose
        # validation consumes the second, so the third is the probe.)
        def run(weight):
            c = self._controller(weight)
            for _ in range(4):
                c.update(sample(hp_bw=1e9))
            c.update(sample(hp_bw=2e9))  # phase change -> reset
            c.update(sample(hp_bw=2e9))  # reset validation period
            c.update(sample(hp_bw=2e9))  # back in OPTIMISE: probe
            return c.trace[-1].phase_change

        assert run(0.05) is True
        assert run(0.95) is False

    def test_unknown_detector_rejected(self):
        with pytest.raises(ValueError, match="phase_detector"):
            DicerConfig(phase_detector="fft")

    def test_zero_weight_rejected(self):
        with pytest.raises(ValueError, match="ewma_weight"):
            DicerConfig(ewma_weight=0.0)


class TestEmptySamplingGrid:
    """Regression: every grid point >= total_ways used to IndexError.

    ``_start_sampling`` filters the grid to ways that fit the cache; on a
    small cache (total_ways=2) with a grid tuned for a 20-way LLC nothing
    survives, and ``_advance_sampling`` popped from an empty list.
    """

    def _small_cache(self, **overrides):
        config = DicerConfig(sample_hp_ways=(8, 4, 3), **overrides)
        return DicerController(config, total_ways=2)

    def test_saturation_with_empty_grid_does_not_crash(self):
        c = self._small_cache()
        c.update(sample())  # warmup
        allocation = c.update(sample(total_bw=SATURATED))
        assert c.mode is ControllerMode.OPTIMISE
        assert allocation.hp_ways == 1  # unchanged
        assert c.trace[-1].event == "sampling_empty"
        assert c.trace[-1].note == "sampling: grid empty"

    def test_classification_not_flipped(self):
        # With nothing probed there is no ``optimal_allocation`` to reset
        # to, so the workload must stay CT-Favoured.
        c = self._small_cache()
        c.update(sample())
        c.update(sample(total_bw=SATURATED))
        assert c.ct_favoured is True
        assert c.ipc_opt is None

    def test_cooldown_prevents_livelock(self):
        c = self._small_cache(resample_cooldown_periods=3)
        c.update(sample())
        c.update(sample(total_bw=SATURATED))  # sampling_empty, cooldown=3
        for _ in range(3):
            c.update(sample(total_bw=SATURATED))
            assert c.trace[-1].event != "sampling_empty"
        # Cooldown expired: persistent saturation probes the dead end again
        # (and re-arms the cooldown) instead of crashing.
        c.update(sample(total_bw=SATURATED))
        assert c.trace[-1].event == "sampling_empty"
        assert c.mode is ControllerMode.OPTIMISE

    def test_empty_grid_emits_telemetry(self):
        registry, log = obs.enable()
        try:
            c = self._small_cache()
            c.update(sample())
            c.update(sample(total_bw=SATURATED))
            assert registry.counter("dicer.sampling_empty").value == 1
            events = [r for r in log.tail if r["kind"] == "dicer.decision"]
            assert events[-1]["event"] == "sampling_empty"
        finally:
            obs.disable()


class TestSamplingConcludeHistory:
    """Regression: the period that concludes sampling polluted Equation 2.

    ``_conclude_sampling`` clears the bandwidth history, but the shared
    bookkeeping in ``update`` then appended that same period's bandwidth —
    measured under the last probe allocation — as the first entry of the
    "clean" history. A low-bandwidth final probe made every normal period
    afterwards look like a >30 % jump, firing a spurious phase change as
    soon as the history refilled.
    """

    def _through_sampling(self):
        c = DicerController(
            DicerConfig(sample_hp_ways=(2, 1), resample_cooldown_periods=0),
            total_ways=4,
        )
        c.update(sample(ipc=0.5, hp_bw=2e9))  # warmup
        c.update(sample(ipc=0.5, hp_bw=2e9, total_bw=SATURATED))  # probe 2
        c.update(sample(ipc=0.5, hp_bw=2e9))  # scores 2, probes 1
        # Concluding period: bandwidth collapsed under the 1-way probe.
        c.update(sample(ipc=0.5, hp_bw=2e8))
        assert c.trace[-1].event == "sampling_conclude"
        return c

    def test_history_excludes_concluding_period(self):
        c = self._through_sampling()
        assert len(c._hp_bw_history) == 0
        assert c._hp_bw_ewma is None

    def test_no_spurious_phase_change_after_sampling(self):
        c = self._through_sampling()
        # Steady state: bandwidth back at its normal 2e9, IPC flat. Without
        # the fix the history reads [2e8, 2e9, 2e9] after two periods and
        # the third 2e9 exceeds 1.3x its geometric mean -> false reset.
        for _ in range(6):
            c.update(sample(ipc=0.5, hp_bw=2e9))
            assert c.trace[-1].phase_change is False
            assert c.mode is ControllerMode.OPTIMISE

    def test_last_ipc_still_tracked_on_concluding_period(self):
        # Suppressing the bandwidth bookkeeping must not suppress the IPC
        # baseline Equation 3 compares against next period.
        c = self._through_sampling()
        assert c._last_ipc == pytest.approx(0.5)


class TestDescentLadder:
    """The prefetch hook sees each descent's HP-ways ladder exactly once."""

    @staticmethod
    def hooked():
        c = controller()
        calls = []
        c.prefetch_hook = lambda allocations: calls.append(
            [a.hp_ways for a in allocations]
        )
        return c, calls

    def test_first_shrink_prefetches_rest_of_ladder(self):
        c, calls = self.hooked()
        c.update(sample())  # warmup
        c.update(sample())  # shrink to 18: descent starts
        assert calls == [list(range(18, 0, -1))]
        for _ in range(5):
            c.update(sample())
        assert c.current.hp_ways == 13
        assert len(calls) == 1

    def test_non_shrink_decision_ends_descent(self):
        c, calls = self.hooked()
        c.update(sample(ipc=0.5))
        c.update(sample(ipc=0.5))  # shrink to 18
        c.update(sample(ipc=0.5))  # 17
        c.update(sample(ipc=0.6))  # improved: hold
        c.update(sample(ipc=0.6))  # stable again: new descent from 16
        assert calls == [list(range(18, 0, -1)), list(range(16, 0, -1))]

    def test_fault_period_leaves_descent_running(self):
        c, calls = self.hooked()
        c.update(sample())
        c.update(sample())  # shrink to 18
        c.update(sample(ipc=float("nan")))  # fault: held
        assert c.trace[-1].event == "fault"
        c.update(sample())  # still the same descent
        assert c.current.hp_ways == 17
        assert len(calls) == 1

    def test_hook_never_changes_decisions(self):
        ipcs = [0.5, 0.5, 0.5, 0.6, 0.6, 0.6, 0.4, 0.5, 0.5, float("nan"),
                0.5, 0.5]
        hooked, calls = self.hooked()
        plain = controller()
        for ipc in ipcs:
            assert hooked.update(sample(ipc=ipc)) == plain.update(
                sample(ipc=ipc)
            )
        assert calls
        assert hooked.trace == plain.trace

    def test_ladder_prefetches_counted(self):
        registry, _ = obs.enable()
        try:
            c, calls = self.hooked()
            for ipc in (0.5, 0.5, 0.5, 0.6, 0.6, 0.6):
                c.update(sample(ipc=ipc))
            assert registry.counter("dicer.ladder_prefetches").value == 2
            assert len(calls) == 2
        finally:
            obs.disable()
