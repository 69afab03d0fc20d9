"""Seeded ad-hoc workload fuzzing with a cross-layer differential oracle.

Submodules: :mod:`~repro.fuzz.generate` (random schemas, skewed databases
and ad-hoc queries), :mod:`~repro.fuzz.reference` (the naive NumPy
reference evaluator), :mod:`~repro.fuzz.oracle` (the six oracle layers)
and :mod:`~repro.fuzz.harness` (scenario driving, presets, the repro
command).  ``python -m repro.fuzz --seed N`` reproduces any scenario.
"""

from repro.fuzz.generate import (
    FuzzSchemaInfo,
    generate_fuzz_database,
    generate_fuzz_queries,
    generate_fuzz_workload,
)
from repro.fuzz.harness import (
    ORACLE_LAYERS,
    PRESETS,
    FuzzConfig,
    FuzzReport,
    ScenarioReport,
    preset,
    repro_command,
    run_fuzz,
    run_scenario,
)
from repro.fuzz.oracle import (
    OracleContext,
    OracleViolation,
    check_engine_output,
    check_kernel_parity,
    check_network_parity,
    check_progress_invariants,
    check_service_parity,
    check_trace_roundtrip,
)
from repro.fuzz.reference import ReferenceResult, compare_output, evaluate_reference

__all__ = [
    "FuzzSchemaInfo",
    "generate_fuzz_database",
    "generate_fuzz_queries",
    "generate_fuzz_workload",
    "ORACLE_LAYERS",
    "PRESETS",
    "FuzzConfig",
    "FuzzReport",
    "ScenarioReport",
    "preset",
    "repro_command",
    "run_fuzz",
    "run_scenario",
    "OracleContext",
    "OracleViolation",
    "check_engine_output",
    "check_kernel_parity",
    "check_progress_invariants",
    "check_network_parity",
    "check_service_parity",
    "check_trace_roundtrip",
    "ReferenceResult",
    "compare_output",
    "evaluate_reference",
]
