"""Serving solves: request coalescing through a solve service.

Run with::

    python examples/solve_service.py

Several client threads ask for solves of the *same* operator at once (the
steady state of a label server or a batched inverse-design evaluator).
Hitting the engine directly, the cold factorization cache sees a thundering
herd and each racing thread builds its own LU.  Routed through a
:class:`~repro.service.SolveService`, the requests group by
``(engine, grid, omega, eps fingerprint)`` inside a few-millisecond
micro-batching window and flush as one batched ``solve_batch`` call: one
factorization, stacked back-substitutions, and results bit-identical to
serial per-request solves.

``benchmarks/bench_service.py`` measures the effect (tail latencies,
throughput); this script just walks it at demo scale.

Set ``REPRO_EXAMPLES_QUICK=1`` for a seconds-scale smoke run (used by CI).
"""

import os
import threading
import time

import numpy as np

from repro.constants import wavelength_to_omega
from repro.devices.factory import make_device
from repro.fdfd.engine import DirectEngine, FactorizationCache, eps_fingerprint
from repro.service import SolveService

QUICK = os.environ.get("REPRO_EXAMPLES_QUICK", "") not in ("", "0")
DEVICE_KWARGS = (
    dict(domain=2.4, design_size=1.2, dl=0.1)
    if QUICK
    else dict(domain=3.5, design_size=1.8, dl=0.05)
)
NUM_CLIENTS = 3 if QUICK else 6


def build_problem():
    device = make_device("bending", fidelity="low", **DEVICE_KWARGS)
    rng = np.random.default_rng(0)
    eps = device.eps_with_design(np.clip(0.5 + 0.2 * rng.normal(size=device.design_shape), 0, 1))
    omega = wavelength_to_omega(device.specs[0].wavelength)
    grid = device.grid
    rhs = np.zeros((NUM_CLIENTS, *grid.shape), dtype=complex)
    for i in range(NUM_CLIENTS):
        ix = rng.integers(grid.npml + 2, grid.nx - grid.npml - 2)
        iy = rng.integers(grid.npml + 2, grid.ny - grid.npml - 2)
        rhs[i, ix, iy] = 1j * omega
    return grid, omega, eps, rhs


def demo_coalescing(grid, omega, eps, rhs) -> None:
    fingerprint = eps_fingerprint(eps)
    serial_engine = DirectEngine(cache=FactorizationCache())
    serial = [
        serial_engine.solve_batch(grid, omega, eps, rhs[i][None], fingerprint=fingerprint)[0]
        for i in range(NUM_CLIENTS)
    ]

    with SolveService(engine=DirectEngine(cache=FactorizationCache()), window=0.01) as service:
        results = [None] * NUM_CLIENTS
        barrier = threading.Barrier(NUM_CLIENTS)

        def client(index: int) -> None:
            barrier.wait()  # everyone fires at once: the thundering herd
            results[index] = service.solve(grid, omega, eps, rhs[index], fingerprint=fingerprint)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(NUM_CLIENTS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        elapsed = time.perf_counter() - start
        stats = service.stats.as_dict()
        factorizations = service.engine.cache.stats.factorizations

    identical = all(np.array_equal(results[i], serial[i]) for i in range(NUM_CLIENTS))
    print(f"coalescing: {NUM_CLIENTS} concurrent clients in {elapsed:.3f}s")
    print(
        f"  {stats['requests']} requests -> {stats['batches']} batched engine call(s), "
        f"{factorizations} factorization(s)"
    )
    print(f"  bit-identical to serial per-request solves: {identical}")
    assert identical and factorizations == 1


def main() -> None:
    grid, omega, eps, rhs = build_problem()
    print(f"bend device, grid {grid.nx}x{grid.ny}")
    demo_coalescing(grid, omega, eps, rhs)


if __name__ == "__main__":
    main()
