"""Shared-buffer switch simulator and fluid-model analyzer.

A packet-level discrete-event simulator of one shared-memory switch under
pluggable admission policies (``PolicyKind``: Complete Sharing, Dynamic
Thresholds, FB and its DT-based approximation FBA), plus exact closed-form
steady-state and transient analysis of the same policies with an
independent exact event-driven fluid solver for cross-validation.
"""

from .core import PolicyKind, QueueId, TrafficClass
from .engine import EventTrace, SwitchState, run
from .fluid import (
    INFEASIBLE,
    UNCONSTRAINED,
    AnalysisResult,
    CaseKind,
    NewQueue,
    OldQueue,
    TransientScenario,
    alpha_bounds_general,
    analyze_transient,
    burst_absorption_curve,
    first_threshold_crossing,
    integrate_transient,
    steady_state,
    two_priority_incast,
)
from .metrics import RunMetrics, compute
from .workloads import (
    Burst,
    ConstantRate,
    PoissonFlows,
    ScenarioConfig,
    dump_scenario,
    load_scenario,
    preset,
    preset_names,
    steady_omegas,
    sweep,
    transient_scenario,
)

__version__ = "0.1.0"
