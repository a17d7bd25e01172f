"""Mixed-precision refined tier: fp32 factorization cost vs. fp64 accuracy.

The claim of :class:`~repro.fdfd.engine.RefinedEngine` is that the expensive
step of a direct solve — the sparse LU factorization — can run in complex64
(halving the factors' complex values and cutting factorization time) while iterative
refinement against the fp64 operator recovers direct-solver accuracy.  This
benchmark measures, across grid sizes:

* factorization wall time, fp64 (``direct``) vs. fp32 (``refined``),
* resident factor bytes for both precisions,
* end-to-end refined-solve accuracy against the direct solution,
* adjoint-gradient fidelity: the cosine similarity between fp64 and
  refined-tier gradients through ``evaluate_specs`` (the quantity that
  decides whether the tier is safe for dataset labelling and inverse design).

Run directly (``python benchmarks/bench_precision.py``) for the committed
``BENCH_precision.json`` record; ``--quick`` shrinks the run to one small
grid and asserts the CI gate: refinement converges, gradients agree to
cosine >= 0.999999 and fp32 factorization wins on time or memory.
"""

from __future__ import annotations

import argparse
import sys
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
    RefinedEngine,
    _entry_nbytes,
    eps_fingerprint,
)
from repro.invdes.adjoint import NumericalFieldBackend, evaluate_specs  # noqa: E402

NUM_RHS = 6
REPEATS = 3
DOMAINS = (3.0, 4.5)
GRADIENT_COSINE_GATE = 0.999999


def _bend_problem(domain: float):
    """A bend device permittivity plus NUM_RHS dipole right-hand sides."""
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


def _gradient_cosine(domain: float) -> float:
    """Cosine similarity of adjoint gradients, direct vs. refined tier."""
    device = make_device("bending", domain=domain, design_size=domain / 2, dl=0.1)
    density = np.random.default_rng(7).uniform(0.2, 0.8, size=device.design_shape)
    grads = {}
    for name, engine in (
        ("direct", DirectEngine(cache=FactorizationCache())),
        ("refined", RefinedEngine(cache=FactorizationCache())),
    ):
        evaluations = evaluate_specs(
            device,
            density,
            backend=NumericalFieldBackend(engine=engine),
            compute_gradient=True,
        )
        grads[name] = np.concatenate(
            [evaluation.grad_density.ravel() for evaluation in evaluations]
        )
    a, b = grads["direct"], grads["refined"]
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def run_benchmark(domains=DOMAINS, num_rhs=NUM_RHS, quick=False) -> dict:
    results = []
    for domain in domains:
        grid, omega, eps, rhs = _bend_problem(domain)
        rhs = rhs[:num_rhs]
        fingerprint = eps_fingerprint(eps)

        def factorize(engine_factory):
            # Fresh cache per repeat: every call pays the factorization.
            engine_factory().factorize(grid, omega, eps, fingerprint=fingerprint)

        t_fp64 = _time(lambda: factorize(lambda: DirectEngine(cache=FactorizationCache())))
        t_fp32 = _time(lambda: factorize(lambda: RefinedEngine(cache=FactorizationCache())))

        direct = DirectEngine(cache=FactorizationCache())
        refined = RefinedEngine(cache=FactorizationCache())
        bytes_fp64 = _entry_nbytes(direct.factorize(grid, omega, eps, fingerprint=fingerprint))
        bytes_fp32 = _entry_nbytes(refined.factorize(grid, omega, eps, fingerprint=fingerprint))

        reference = direct.solve_batch(grid, omega, eps, rhs, fingerprint=fingerprint)
        solution = refined.solve_batch(grid, omega, eps, rhs, fingerprint=fingerprint)
        scale = np.max(np.abs(reference))
        max_rel_err = float(np.max(np.abs(solution - reference)) / scale)

        results.append(
            {
                "grid": list(grid.shape),
                "n_points": grid.n_points,
                "num_rhs": len(rhs),
                "factor_fp64_s": t_fp64,
                "factor_fp32_s": t_fp32,
                "factor_speedup": t_fp64 / t_fp32,
                "factor_fp64_bytes": int(bytes_fp64),
                "factor_fp32_bytes": int(bytes_fp32),
                "memory_ratio": bytes_fp64 / bytes_fp32,
                "refine_sweeps": refined.stats.sweeps,
                "max_rel_err_vs_direct": max_rel_err,
            }
        )

    gradient_cosine = _gradient_cosine(domain=3.0)

    rows = [
        [
            f"{r['grid'][0]}x{r['grid'][1]}",
            f"{r['factor_fp64_s'] * 1e3:.1f}",
            f"{r['factor_fp32_s'] * 1e3:.1f}",
            f"{r['factor_speedup']:.2f}x",
            f"{r['factor_fp64_bytes'] / 1e6:.1f}",
            f"{r['factor_fp32_bytes'] / 1e6:.1f}",
            f"{r['memory_ratio']:.2f}x",
            f"{r['max_rel_err_vs_direct']:.1e}",
        ]
        for r in results
    ]
    print_table(
        "Mixed-precision factorization (refined tier vs direct)",
        ["grid", "fp64 [ms]", "fp32 [ms]", "speedup", "fp64 [MB]", "fp32 [MB]", "mem", "rel err"],
        rows,
    )
    print(f"adjoint gradient cosine (direct vs refined): {gradient_cosine:.9f}")

    record = {"results": results, "gradient_cosine": gradient_cosine}
    if quick:
        _assert_quick_contracts(record)
    path = write_bench_record("precision_quick" if quick else "precision", record)
    print(f"wrote {path}")
    return record


def _assert_quick_contracts(record: dict) -> None:
    """The CI gate: converged, gradient-faithful, and a real fp32 win."""
    for result in record["results"]:
        assert result["max_rel_err_vs_direct"] <= 1e-8, (
            f"refinement did not converge: rel err {result['max_rel_err_vs_direct']:.3e}"
        )
        assert result["refine_sweeps"] >= 1
        assert (
            result["factor_fp32_s"] < result["factor_fp64_s"]
            or result["factor_fp32_bytes"] < result["factor_fp64_bytes"]
        ), "fp32 factorization won on neither time nor memory"
        # The memory claim is structural (complex64 factors), so gate on it.
        assert result["memory_ratio"] > 1.2, (
            f"fp32 factors only {result['memory_ratio']:.2f}x smaller"
        )
    assert record["gradient_cosine"] >= GRADIENT_COSINE_GATE, (
        f"gradient cosine {record['gradient_cosine']:.9f} below {GRADIENT_COSINE_GATE}"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="small single-grid run with hard assertions (the CI gate)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        run_benchmark(domains=(3.0,), num_rhs=4, quick=True)
    else:
        run_benchmark()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
