"""Resident explain service: content-keyed caching of problem images
and batch kernels across calls (see :mod:`repro.service.service` for
the design notes)."""

from repro.service.keys import (
    invalidate_fingerprint,
    problem_key,
    request_key,
    table_fingerprint,
)
from repro.service.service import (
    CACHE_STAT_KEYS,
    DEFAULT_CACHE_BYTES,
    ExplainService,
)

__all__ = [
    "CACHE_STAT_KEYS",
    "DEFAULT_CACHE_BYTES",
    "ExplainService",
    "invalidate_fingerprint",
    "problem_key",
    "request_key",
    "table_fingerprint",
]
