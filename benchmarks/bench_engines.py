"""Solver-engine throughput: sequential per-RHS solves vs. batched engines.

The architectural claim of the engine layer is factorize-once/solve-many:
a device with N excitation specs (plus their adjoint and normalization
right-hand sides) should cost one factorization and N cheap back-
substitutions, not N factorizations.  This benchmark measures, across grid
sizes:

* ``sequential`` — the seed behaviour: every right-hand side pays a fresh
  factorization (what independent throwaway solvers per call site did),
* ``direct_batched`` — one :class:`~repro.fdfd.engine.DirectEngine`
  factorization, all RHS stacked into a single multi-RHS solve.

Run directly (``python benchmarks/bench_engines.py``) or through pytest.
Emits the standard ``BENCH_engines.json`` record.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from common import print_table, write_bench_record  # noqa: E402

from repro.constants import wavelength_to_omega  # noqa: E402
from repro.devices.factory import make_device  # noqa: E402
from repro.fdfd.engine import DirectEngine, FactorizationCache  # noqa: E402

NUM_RHS = 6
REPEATS = 3
DOMAINS = (3.0, 4.5)


def _bend_problem(domain: float):
    """A bend device permittivity plus NUM_RHS mode/dipole right-hand sides."""
    device = make_device("bending", fidelity="low", domain=domain, design_size=domain / 2)
    density = np.clip(
        0.5 + 0.2 * np.random.default_rng(0).normal(size=device.design_shape), 0, 1
    )
    eps = device.eps_with_design(density)
    grid = device.grid
    omega = wavelength_to_omega(device.specs[0].wavelength)
    rng = np.random.default_rng(1)
    rhs = np.zeros((NUM_RHS, *grid.shape), dtype=complex)
    for index in range(NUM_RHS):
        ix = rng.integers(grid.npml + 2, grid.nx - grid.npml - 2)
        iy = rng.integers(grid.npml + 2, grid.ny - grid.npml - 2)
        rhs[index, ix, iy] = 1j * omega
    return grid, omega, eps, rhs


def _time(fn, repeats: int = REPEATS) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run_benchmark(domains=DOMAINS, num_rhs=NUM_RHS) -> dict:
    """Time the two solve strategies and return the record dict."""
    results = []
    for domain in domains:
        grid, omega, eps, rhs = _bend_problem(domain)
        rhs = rhs[:num_rhs]

        def sequential():
            # Fresh cache per RHS: every solve pays its own factorization,
            # mimicking the seed's throwaway solver per call site.
            for single in rhs:
                engine = DirectEngine(cache=FactorizationCache())
                engine.solve_batch(grid, omega, eps, single[None])

        def batched():
            DirectEngine(cache=FactorizationCache()).solve_batch(grid, omega, eps, rhs)

        t_seq = _time(sequential)
        t_bat = _time(batched)
        results.append(
            {
                "grid": list(grid.shape),
                "n_points": grid.n_points,
                "num_rhs": len(rhs),
                "sequential_s": t_seq,
                "direct_batched_s": t_bat,
                "speedup_batched_vs_sequential": t_seq / t_bat,
            }
        )

    rows = [
        [
            f"{r['grid'][0]}x{r['grid'][1]}",
            r["num_rhs"],
            f"{r['sequential_s'] * 1e3:.1f}",
            f"{r['direct_batched_s'] * 1e3:.1f}",
            f"{r['speedup_batched_vs_sequential']:.1f}x",
        ]
        for r in results
    ]
    print_table(
        "Engine throughput (6 RHS per operator)",
        ["grid", "#rhs", "seq [ms]", "batched [ms]", "speedup"],
        rows,
    )
    record = {"results": results}
    path = write_bench_record("engines", record)
    print(f"wrote {path}")
    return record


def test_batched_direct_engine_speedup():
    """Factorize-once/solve-many beats per-RHS factorization by >= 2x."""
    record = run_benchmark(domains=(3.0,), num_rhs=4)
    speedup = record["results"][0]["speedup_batched_vs_sequential"]
    assert speedup >= 2.0, f"batched speedup only {speedup:.2f}x"


if __name__ == "__main__":
    run_benchmark()
