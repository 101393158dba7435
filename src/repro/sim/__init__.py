"""Cycle-level simulation engine.

:class:`repro.sim.processor.Processor` ties together the frontend
(:mod:`repro.frontend`), the clustered backends (:mod:`repro.backend`), the
memory hierarchy (:mod:`repro.memory`) and the interconnect
(:mod:`repro.interconnect`), advances them cycle by cycle, and feeds
per-block activity counts to the power model (:mod:`repro.power`) and the
thermal model (:mod:`repro.thermal`) at every thermal interval.
"""

from repro.sim.config import (
    ProcessorConfig,
    FrontendConfig,
    TraceCacheConfig,
    BackendConfig,
    MemoryConfig,
    InterconnectConfig,
    PowerConfig,
    ThermalConfig,
    SteeringPolicy,
)
from repro.sim.activity_trace import (
    ActivityTrace,
    fast_timing_unavailable_reason,
    timing_feedback_reason,
)
from repro.sim.block_index import BlockIndex
from repro.sim.processor import Processor
from repro.sim.results import SimulationResult
from repro.sim.stats import ActivityCounters, SimulationStats

__all__ = [
    "ActivityTrace",
    "BlockIndex",
    "ProcessorConfig",
    "FrontendConfig",
    "TraceCacheConfig",
    "BackendConfig",
    "MemoryConfig",
    "InterconnectConfig",
    "PowerConfig",
    "ThermalConfig",
    "SteeringPolicy",
    "Processor",
    "SimulationResult",
    "ActivityCounters",
    "SimulationStats",
    "fast_timing_unavailable_reason",
    "timing_feedback_reason",
]
