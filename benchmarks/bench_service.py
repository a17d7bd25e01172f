"""Solve service under many-client load: request coalescing.

N concurrent clients querying the same operator each pay a solve call.
Uncoalesced, they race the factorization cache on a cold start (the cache
deliberately locks its bookkeeping, not the build, so the thundering herd
builds up to N identical LUs) and then back-substitute one right-hand side at
a time.  Through a :class:`~repro.service.SolveService` the same requests
group by ``(engine, grid, omega, eps fingerprint)`` and flush as single
batched ``solve_batch`` calls: one factorization total, stacked
back-substitutions, bit-identical results.  Reported per arm:
factorizations, throughput, and p50/p95/p99 request latency.

``--quick`` shrinks the load and turns the claims into hard assertions —
the CI gate: coalesced results bit-identical to serial per-request solves,
factorizations reduced, wall time not slower.  Writes ``BENCH_service.json``
(``BENCH_service_quick.json`` with ``--quick``).
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from common import print_table, write_bench_record  # noqa: E402

from repro.constants import wavelength_to_omega  # noqa: E402
from repro.devices.factory import make_device  # noqa: E402
from repro.fdfd.engine import (  # noqa: E402
    DirectEngine,
    FactorizationCache,
    eps_fingerprint,
)
from repro.service import SolveService  # noqa: E402


def _problem(quick: bool):
    """One bend-device operator plus a pool of distinct dipole right-hand sides."""
    # Sized so one factorization costs tens (quick) to hundreds (full) of
    # milliseconds — well above the coalescing window, as in real serving.
    kwargs = (
        dict(domain=3.0, design_size=1.4, dl=0.05)
        if quick
        else dict(domain=3.5, design_size=1.8, dl=0.03)
    )
    device = make_device("bending", fidelity="low", **kwargs)
    density = np.clip(
        0.5 + 0.2 * np.random.default_rng(0).normal(size=device.design_shape), 0, 1
    )
    eps = device.eps_with_design(density)
    grid = device.grid
    omega = wavelength_to_omega(device.specs[0].wavelength)
    return grid, omega, eps


def _rhs_pool(grid, omega, count: int) -> np.ndarray:
    rng = np.random.default_rng(1)
    rhs = np.zeros((count, *grid.shape), dtype=complex)
    for index in range(count):
        ix = rng.integers(grid.npml + 2, grid.nx - grid.npml - 2)
        iy = rng.integers(grid.npml + 2, grid.ny - grid.npml - 2)
        rhs[index, ix, iy] = 1j * omega
    return rhs


def _percentiles(latencies: list[float]) -> dict:
    values = np.asarray(latencies)
    return {
        "p50_ms": round(float(np.percentile(values, 50)) * 1e3, 3),
        "p95_ms": round(float(np.percentile(values, 95)) * 1e3, 3),
        "p99_ms": round(float(np.percentile(values, 99)) * 1e3, 3),
        "mean_ms": round(float(values.mean()) * 1e3, 3),
    }


def _client_load(solve_one, num_clients: int, per_client: int, total_rhs: int):
    """Fire ``num_clients`` threads issuing ``per_client`` requests each.

    ``solve_one(index)`` handles request ``index``; a barrier releases every
    client at once so a cold cache sees the full thundering herd.  Returns
    ``(results, latencies, wall_seconds)`` with results ordered by request
    index.
    """
    results: list = [None] * total_rhs
    latencies: list[float] = [0.0] * total_rhs
    barrier = threading.Barrier(num_clients + 1)

    def client(client_index: int) -> None:
        barrier.wait()
        for request in range(per_client):
            index = client_index * per_client + request
            start = time.perf_counter()
            results[index] = solve_one(index)
            latencies[index] = time.perf_counter() - start

    threads = [
        threading.Thread(target=client, args=(i,), name=f"client-{i}")
        for i in range(num_clients)
    ]
    for thread in threads:
        thread.start()
    barrier.wait()
    wall_start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - wall_start
    return results, latencies, wall


def run_coalescing(grid, omega, eps, quick: bool) -> dict:
    """Concurrent same-operator load: direct engine vs. the solve service."""
    num_clients = 4 if quick else 8
    per_client = 6 if quick else 12
    total = num_clients * per_client
    fingerprint = eps_fingerprint(eps)
    rhs = _rhs_pool(grid, omega, total)

    # Serial per-request reference (also warms the shared operator-template
    # cache, so neither timed arm pays one-time assembly).
    reference_engine = DirectEngine(cache=FactorizationCache())
    reference = [
        reference_engine.solve_batch(grid, omega, eps, rhs[i][None], fingerprint=fingerprint)[0]
        for i in range(total)
    ]

    # Uncoalesced: every client calls the engine directly; the cold cache
    # sees the full herd at once.
    uncoalesced_cache = FactorizationCache()
    uncoalesced_engine = DirectEngine(cache=uncoalesced_cache)

    def solve_direct(index: int):
        return uncoalesced_engine.solve_batch(
            grid, omega, eps, rhs[index][None], fingerprint=fingerprint
        )[0]

    un_results, un_latencies, un_wall = _client_load(
        solve_direct, num_clients, per_client, total
    )

    # Coalesced: the same load through a SolveService (its own engine and
    # cache, equally cold).
    service = SolveService(
        engine=DirectEngine(cache=FactorizationCache()),
        window=0.002 if quick else 0.005,
        max_batch=64,
    )

    def solve_served(index: int):
        return service.solve(grid, omega, eps, rhs[index], fingerprint=fingerprint)

    co_results, co_latencies, co_wall = _client_load(
        solve_served, num_clients, per_client, total
    )
    service_stats = service.stats.as_dict()
    coalesced_cache = service.engine.cache
    service.close()

    identical = all(
        np.array_equal(co_results[i], reference[i]) for i in range(total)
    )
    uncoalesced_identical = all(
        np.array_equal(un_results[i], reference[i]) for i in range(total)
    )
    return {
        "num_clients": num_clients,
        "requests_per_client": per_client,
        "total_requests": total,
        "uncoalesced": {
            "factorizations": uncoalesced_cache.stats.factorizations,
            "wall_seconds": round(un_wall, 4),
            "throughput_rps": round(total / un_wall, 2),
            "latency": _percentiles(un_latencies),
            "cache": uncoalesced_cache.stats.as_dict(),
            "bit_identical_to_serial": bool(uncoalesced_identical),
        },
        "coalesced": {
            "factorizations": coalesced_cache.stats.factorizations,
            "wall_seconds": round(co_wall, 4),
            "throughput_rps": round(total / co_wall, 2),
            "latency": _percentiles(co_latencies),
            "cache": coalesced_cache.stats.as_dict(),
            "service": service_stats,
            "bit_identical_to_serial": bool(identical),
        },
    }


def assert_quick_contracts(coalescing: dict) -> None:
    """The CI gate: the serving layer must actually deliver its claims."""
    co, un = coalescing["coalesced"], coalescing["uncoalesced"]
    assert co["bit_identical_to_serial"], (
        "coalesced batch results must be bit-identical to serial per-request solves"
    )
    assert co["factorizations"] == 1, (
        f"coalescing must collapse the herd to one factorization, "
        f"got {co['factorizations']}"
    )
    assert co["factorizations"] <= un["factorizations"], (
        f"coalescing must not factorize more than the uncoalesced arm "
        f"({co['factorizations']} vs {un['factorizations']})"
    )
    assert co["wall_seconds"] <= un["wall_seconds"] * 1.10, (
        f"coalesced wall time {co['wall_seconds']}s must not be slower than "
        f"uncoalesced {un['wall_seconds']}s"
    )


def run(quick: bool) -> dict:
    grid, omega, eps = _problem(quick)
    coalescing = run_coalescing(grid, omega, eps, quick)
    if quick:
        assert_quick_contracts(coalescing)

    co, un = coalescing["coalesced"], coalescing["uncoalesced"]
    print_table(
        "Solve service: concurrent same-operator load "
        f"({coalescing['num_clients']} clients x {coalescing['requests_per_client']} requests)",
        ["arm", "factorizations", "wall s", "req/s", "p50 ms", "p95 ms", "p99 ms"],
        [
            [
                name,
                str(arm["factorizations"]),
                f"{arm['wall_seconds']:.3f}",
                f"{arm['throughput_rps']:.1f}",
                f"{arm['latency']['p50_ms']:.1f}",
                f"{arm['latency']['p95_ms']:.1f}",
                f"{arm['latency']['p99_ms']:.1f}",
            ]
            for name, arm in (("uncoalesced", un), ("coalesced", co))
        ],
    )
    return {
        "quick": quick,
        "device": "bending",
        "grid": [grid.nx, grid.ny],
        "coalescing": coalescing,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help=(
            "CI smoke gate: small load plus hard assertions on coalescing "
            "correctness and factorization reduction"
        ),
    )
    args = parser.parse_args(argv)
    record = run(quick=args.quick)
    path = write_bench_record("service_quick" if args.quick else "service", record)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
