"""DCP-QoS — the related-work baseline (paper Section 5).

    "Papadakis et al. proposed DCP-QoS, a dynamic cache partitioning scheme
    for co-locating HP and BEs that is similar to DICER. While DCP-QoS
    follows a black-box approach, it lacks support for identifying and
    mitigating memory bandwidth saturation."

Implemented as DICER with :attr:`~repro.core.config.DicerConfig.
saturation_detection` disabled: the identical IPC-driven optimisation and
phase/reset machinery, but no bandwidth monitoring — so a CT-Thwarted
workload is never reclassified and the controller keeps treating CT's
allocation as the safe harbour. Comparing :class:`DcpQosPolicy` against
:class:`~repro.core.policies.DicerPolicy` isolates the paper's novelty
claim (the saturation path) experimentally.
"""

from __future__ import annotations

from dataclasses import replace

from repro.core.config import DicerConfig, TABLE1_DICER_CONFIG
from repro.core.policies import DicerPolicy

__all__ = ["DcpQosPolicy"]


class DcpQosPolicy(DicerPolicy):
    """Dynamic cache partitioning without bandwidth-saturation awareness."""

    name = "DCP-QoS"

    def __init__(self, config: DicerConfig = TABLE1_DICER_CONFIG) -> None:
        super().__init__(replace(config, saturation_detection=False))
