"""The generic control loop: controller × backend.

:func:`drive` is the only monitor-decide-actuate loop outside the
paper-literal oracles: the experiment runner (``run_pair``,
``run_custom``, ``run_multi``), serve-node evaluations and the noise
ablation all run their periods through it, so the three knobs reach
every backend the same way and a bug fix lands once.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.rdt.interface import RdtBackend

if TYPE_CHECKING:  # import cycle guard: repro.core imports repro.rdt.sample
    from repro.core.dicer import DecisionRecord, DicerController

__all__ = ["drive"]


def drive(
    controller: "DicerController",
    backend: RdtBackend,
    *,
    max_periods: int | None = None,
    max_time_s: float | None = None,
) -> "list[DecisionRecord]":
    """Run the control loop until the backend finishes or a bound is hit.

    A controller's ``initial_allocation`` is applied first (a
    :class:`~repro.core.policies.Policy` has none: the caller built the
    backend from its ``setup``). Then per ``controller.period_s``:
    sample → update → apply a non-``None`` allocation → forward
    ``be_throttle`` (MBA), then ``be_prefetch``, when both sides have
    them. ``max_periods`` bounds hardware sessions that have no natural
    end; ``max_time_s`` stops once ``backend.time_s`` reaches it.
    Returns the controller's decision trace.
    """
    allocation = getattr(controller, "initial_allocation", lambda: None)()
    if allocation is not None:
        backend.apply(allocation)
    period_s = controller.period_s
    apply_throttle = getattr(backend, "apply_be_throttle", None)
    apply_prefetch = getattr(backend, "apply_be_prefetch", None)
    # Decided once per run: a knob the controller lacks costs no period.
    throttles = apply_throttle and hasattr(controller, "be_throttle")
    prefetches = apply_prefetch and hasattr(controller, "be_prefetch")
    periods = 0
    while not backend.finished:
        if max_periods is not None and periods >= max_periods:
            break
        if max_time_s is not None and backend.time_s >= max_time_s:
            break
        allocation = controller.update(backend.sample(period_s))
        if allocation is not None:
            backend.apply(allocation)
        if throttles:
            apply_throttle(controller.be_throttle)
        if prefetches:
            apply_prefetch(controller.be_prefetch)
        periods += 1
    return controller.trace
