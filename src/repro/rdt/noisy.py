"""Measurement-noise injection for controller robustness studies.

The simulator's samples are noise-free; hardware counters are not — IPC
wobbles with interrupts and frequency transitions, and MBM counters
quantise. DICER's stability band (Equation 3's alpha = 5 %) exists to
absorb exactly that jitter, but the paper never quantifies how much noise
the controller tolerates. :class:`NoisyRdt` wraps any backend and
perturbs each sample with seeded multiplicative noise, so the robustness
ablation can sweep noise against alpha.
"""

from __future__ import annotations

from repro.obs import get_registry
from repro.rdt.interface import RdtBackend, WrappedRdt
from repro.rdt.sample import PeriodSample
from repro.util.rng import make_rng
from repro.util.validation import check_fraction

__all__ = ["NoisyRdt"]


class NoisyRdt(WrappedRdt):
    """Decorator backend: multiplicative Gaussian jitter on measurements.

    ``ipc_noise`` / ``bw_noise`` are relative standard deviations (0.03 =
    3 % jitter). Perturbations are clipped at ±3 sigma and the resulting
    scale factor is floored at zero, so no draw — however extreme the
    sigma — can produce a negative counter; the HP/total bandwidth pair
    is perturbed consistently (total >= hp stays true).
    """

    def __init__(
        self,
        inner: RdtBackend,
        *,
        ipc_noise: float = 0.03,
        bw_noise: float = 0.03,
        seed: int | None = None,
    ) -> None:
        super().__init__(inner)
        self._ipc_noise = check_fraction("ipc_noise", ipc_noise)
        self._bw_noise = check_fraction("bw_noise", bw_noise)
        self._rng = make_rng(seed)

    def _jitter(self, sigma: float) -> float:
        if sigma == 0.0:
            return 1.0
        draw = float(self._rng.normal(0.0, sigma))
        draw = max(-3.0 * sigma, min(3.0 * sigma, draw))
        # The ±3-sigma clip keeps the factor positive only for sigma < 1/3;
        # at extreme sigma the floor below is what guarantees counters can
        # never go negative (exercised by property tests).
        return max(0.0, 1.0 + draw)

    # -- RdtBackend (actuation is never perturbed) ---------------------------

    def sample(self, period_s: float) -> PeriodSample:
        """Sample the inner backend and jitter the measurements."""
        clean = self._inner.sample(period_s)
        get_registry().counter("rdt.noisy.samples").inc()
        hp_scale = self._jitter(self._bw_noise)
        total_scale = self._jitter(self._bw_noise)
        hp_bw = clean.hp_mem_bytes_s * hp_scale
        total_bw = max(clean.total_mem_bytes_s * total_scale, hp_bw)
        return PeriodSample(
            duration_s=clean.duration_s,
            hp_ipc=clean.hp_ipc * self._jitter(self._ipc_noise),
            hp_mem_bytes_s=hp_bw,
            total_mem_bytes_s=total_bw,
            hp_llc_occupancy_bytes=clean.hp_llc_occupancy_bytes,
        )
