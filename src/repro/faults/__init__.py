"""Deterministic fault injection (see :mod:`repro.faults.registry`)."""

from .registry import (
    FaultError,
    FaultRegistry,
    FaultSpec,
    InjectedFault,
    clear_faults,
    fault_injection,
    fault_point,
    fault_stats,
    faults_enabled,
    install_faults,
    parse_faults,
)

__all__ = [
    "FaultError",
    "FaultRegistry",
    "FaultSpec",
    "InjectedFault",
    "clear_faults",
    "fault_injection",
    "fault_point",
    "fault_stats",
    "faults_enabled",
    "install_faults",
    "parse_faults",
]
