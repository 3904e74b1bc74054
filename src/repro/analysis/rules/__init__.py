"""The rule battery: importing this package registers every rule."""

from repro.analysis.rules import (  # noqa: F401
    async_blocking,
    job_threading,
    kernel_parity,
    protocol_dispatch,
    stats_registry,
)

__all__ = [
    "async_blocking",
    "job_threading",
    "kernel_parity",
    "protocol_dispatch",
    "stats_registry",
]
