"""HyperLogLog library with an estimate-inflation attack toolkit.

Core sketch (hashing, insertion, harmonic-mean + linear-counting
estimates, merge), a black-box cardinality-oracle interface with
in-process and Redis-backed implementations, the three-phase attack-set
construction, detection schemes, and closed-form analysis of the
attack's behavior.
"""

from .analysis import (
    estimate_increment,
    expected_missed_lpca,
    expected_register_value,
    miss_condition_register_value,
    predicted_phase1_ratio,
    undetectable_delta_threshold,
    z_delta,
)
from .attack import (
    AttackAborted,
    AttackRun,
    AttackSet,
    PhaseReport,
    phase1,
    phase2,
    phase3,
    run_attack,
    verify,
)
from .defense import DetectionReport, SnsGuard, StatsMonitor, default_divergence_threshold
from .oracle import CardinalityOracle, CountingOracle
from .remote import RemoteOracle, parse_endpoint
from .sketch import (
    HllParams,
    HllSketch,
    alpha_for_registers,
    kernel_backend,
    make_oracle,
    merge,
    witness_subset,
)

__version__ = "0.1.0"

__all__ = [
    "HllParams",
    "HllSketch",
    "alpha_for_registers",
    "merge",
    "witness_subset",
    "kernel_backend",
    "CardinalityOracle",
    "CountingOracle",
    "make_oracle",
    "AttackSet",
    "PhaseReport",
    "AttackRun",
    "AttackAborted",
    "phase1",
    "phase2",
    "phase3",
    "run_attack",
    "verify",
    "SnsGuard",
    "StatsMonitor",
    "DetectionReport",
    "default_divergence_threshold",
    "RemoteOracle",
    "parse_endpoint",
    "expected_missed_lpca",
    "z_delta",
    "estimate_increment",
    "undetectable_delta_threshold",
    "miss_condition_register_value",
    "expected_register_value",
    "predicted_phase1_ratio",
]
