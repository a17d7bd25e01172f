"""Solve service.

This package is the serving layer of the stack:
:mod:`repro.service.solve_service` holds :class:`SolveService`, an async
solve front-end that groups concurrently-arriving requests by
``(grid, omega, eps fingerprint, engine)`` and coalesces their right-hand
sides into single batched ``solve_batch`` calls; it is served anywhere an
engine is accepted via :class:`ServiceEngine` (``engine="service"`` or
``Simulation(engine=service)``).  Factorizations are shared within a process
through :class:`~repro.fdfd.engine.FactorizationCache`.

Importing this package registers the ``"service"`` engine tier.
"""

from repro.service.solve_service import (
    ServiceEngine,
    ServiceStats,
    SolveService,
    SolveTimeoutError,
    default_solve_service,
)

__all__ = [
    "ServiceEngine",
    "ServiceStats",
    "SolveService",
    "SolveTimeoutError",
    "default_solve_service",
]
