"""Inverse-design optimization-loop throughput: direct vs recycled.

Every Adam step of an adjoint optimization changes the permittivity, so the
content-keyed factorization cache never hits and the direct engine pays a full
SuperLU factorization per iteration — the hot path this benchmark measures.
The recycled engine instead keeps the LU of a reference permittivity and
serves nearby iterates with matvec-free diagonal-update refinement
(refactorizing when it fails), warm-started from the previous iteration's fields through the
optimizer's :class:`~repro.fdfd.engine.SolveWorkspace`.  Like the quickstart's
``engine="recycled"``, it is given the device's design region, so it factors
and refines only the region's Schur complement against a resident exterior.

For each benchmark device the same optimization (same ``theta0``, same
learning rate, same iteration count) runs once per engine; reported are
iterations/sec and total wall-clock (the median of interleaved cold
repeats, each repeat's wall clock kept in the record), and — so speed never
silently buys wrong gradients — a gradient-fidelity column: the cosine
similarity between the recycled and direct gradients at the final iterate,
and the relative drift of the final figure of merit.

Run directly (``python benchmarks/bench_invdes.py``; ``--quick`` for the CI
smoke variant) or through pytest.  Emits the standard ``BENCH_invdes.json``.
The optimization uses fine Adam steps (the "hundreds of adjoint iterations"
regime of MAPS-InvDes), where operator drift per iteration is small — the
regime factorization recycling is designed for.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from common import print_table, write_bench_record  # noqa: E402

from repro.devices.factory import make_device  # noqa: E402
from repro.fdfd.engine import FactorizationCache, make_engine  # noqa: E402
import repro.fdfd.simulation as _simulation  # noqa: E402
from repro.invdes import AdjointOptimizer, InverseDesignProblem  # noqa: E402

# Fine-discretization devices (the MAPS "high"-fidelity cell size) with fine
# Adam steps: the realistic operating point of a production inverse-design
# run, where per-iteration operator drift is small.
DEVICES = ({"name": "bending", "dl": 0.05}, {"name": "crossing", "dl": 0.05})
DEVICE_KWARGS = dict(domain=4.0, design_size=2.0)
ENGINES = ("direct", "recycled")
ITERATIONS = 16
#: Cold runs per engine, interleaved direct/recycled so the host's fast and
#: slow phases hit both arms alike; the median wall clock of each is kept.
REPEATS = 5
LEARNING_RATE = 0.02


def _fresh_engine(name: str, device):
    """Engine instance with a private cache, so runs cannot share LUs.

    The recycled arm gets the device's design region, as
    ``InverseDesignProblem(engine="recycled")`` builds it.
    """
    if name == "recycled":
        return make_engine(
            name, cache=FactorizationCache(), design_region=device.geometry.design_slice
        )
    return make_engine(name, cache=FactorizationCache())


def _run_optimization(device_spec: dict, engine_name: str, iterations: int):
    """One cold optimizer run (fresh engine, fresh caches): ``(wall, trajectory, problem)``.

    The trajectory is deterministic, so repeats differ in wall clock only.
    """
    device = make_device(device_spec["name"], dl=device_spec["dl"], **DEVICE_KWARGS)
    _simulation._NORMALIZATION_CACHE.clear()
    problem = InverseDesignProblem(device, engine=_fresh_engine(engine_name, device))
    optimizer = AdjointOptimizer(problem, learning_rate=LEARNING_RATE)
    theta0 = problem.initial_theta("waveguide")
    start = time.perf_counter()
    trajectory = optimizer.run(theta0=theta0, iterations=iterations)
    return time.perf_counter() - start, trajectory, problem


def _gradient_fidelity(device_spec: dict, theta: np.ndarray) -> float:
    """Cosine similarity between recycled and direct gradients at ``theta``.

    The recycled engine is evaluated mid-recycle: a first evaluation installs
    the reference factorization, a second at a slightly perturbed design goes
    through the recycled (refinement) path — the code path whose gradients
    the optimization actually consumes.
    """
    device = make_device(device_spec["name"], dl=device_spec["dl"], **DEVICE_KWARGS)
    perturbed = theta + 1e-3 * np.random.default_rng(0).normal(size=theta.shape)

    direct_problem = InverseDesignProblem(device, engine=_fresh_engine("direct", device))
    _, grad_direct = direct_problem.value_and_grad(perturbed)

    recycled_problem = InverseDesignProblem(device, engine=_fresh_engine("recycled", device))
    recycled_problem.value_and_grad(theta)  # installs the reference LU
    _, grad_recycled = recycled_problem.value_and_grad(perturbed)

    norm = np.linalg.norm(grad_direct) * np.linalg.norm(grad_recycled)
    if norm == 0:
        return 1.0
    return float(np.vdot(grad_direct.ravel(), grad_recycled.ravel()).real / norm)


def run_benchmark(devices=DEVICES, iterations=ITERATIONS, record_name="invdes") -> dict:
    """Time every engine on every device and return the record dict."""
    results = []
    for device_spec in devices:
        walls: dict[str, list[float]] = {name: [] for name in ENGINES}
        runs = {}
        for _ in range(REPEATS):
            for engine_name in ENGINES:
                elapsed, trajectory, problem = _run_optimization(
                    device_spec, engine_name, iterations
                )
                walls[engine_name].append(elapsed)
                runs[engine_name] = trajectory, problem
        per_engine: dict[str, dict] = {}
        final_theta = None
        for engine_name in ENGINES:
            trajectory, problem = runs[engine_name]
            elapsed = float(np.median(walls[engine_name]))
            entry = {
                "wall_clock_s": elapsed,
                "wall_clock_samples_s": walls[engine_name],
                "iterations_per_s": (iterations + 1) / elapsed,
                "final_fom": float(trajectory[-1].fom),
            }
            stats = getattr(problem.backend.engine, "stats", None)
            if stats is not None:
                entry["factorizations"] = stats.factorizations
                entry["recycled_solves"] = stats.recycled_solves
                entry["refinement_sweeps"] = stats.krylov_iterations
            per_engine[engine_name] = entry
            if engine_name == "direct":
                # The gradient-fidelity probe runs at the direct run's final
                # latent point — a converged, binarized design, the hardest
                # place for an approximate solve to stay faithful.
                final_theta = trajectory[-1].theta

        direct = per_engine["direct"]
        recycled = per_engine["recycled"]
        fom_scale = max(abs(direct["final_fom"]), 1e-12)
        results.append(
            {
                "device": device_spec["name"],
                "dl": device_spec["dl"],
                "iterations": iterations,
                "learning_rate": LEARNING_RATE,
                "engines": per_engine,
                "speedup_recycled_vs_direct": (
                    recycled["iterations_per_s"] / direct["iterations_per_s"]
                ),
                "gradient_cosine_recycled_vs_direct": _gradient_fidelity(
                    device_spec, final_theta
                ),
                "fom_drift_recycled_vs_direct": (
                    abs(recycled["final_fom"] - direct["final_fom"]) / fom_scale
                ),
            }
        )

    rows = [
        [
            r["device"],
            f"{r['engines']['direct']['iterations_per_s']:.2f}",
            f"{r['engines']['recycled']['iterations_per_s']:.2f}",
            f"{r['speedup_recycled_vs_direct']:.2f}x",
            f"{r['gradient_cosine_recycled_vs_direct']:.6f}",
            f"{r['fom_drift_recycled_vs_direct']:.2e}",
        ]
        for r in results
    ]
    print_table(
        f"Inverse-design loop throughput ({iterations} Adam iterations)",
        ["device", "direct it/s", "recycled it/s",
         "speedup", "grad cosine", "FoM drift"],
        rows,
    )
    record = {"results": results}
    path = write_bench_record(record_name, record)
    print(f"wrote {path}")
    return record


def _check_record(record: dict, min_speedup: float) -> None:
    """Shared assertions: recycled must be fast *and* right."""
    for result in record["results"]:
        speedup = result["speedup_recycled_vs_direct"]
        assert speedup >= min_speedup, (
            f"{result['device']}: recycled speedup only {speedup:.2f}x "
            f"(need >= {min_speedup}x)"
        )
        cosine = result["gradient_cosine_recycled_vs_direct"]
        assert cosine >= 0.999, f"{result['device']}: gradient cosine {cosine:.6f} < 0.999"
        drift = result["fom_drift_recycled_vs_direct"]
        assert drift <= 0.01, f"{result['device']}: FoM drift {drift:.2e} > 1%"


def test_recycled_engine_speedup():
    """Recycling beats per-iteration refactorization >= 2x with exact gradients."""
    record = run_benchmark()
    _check_record(record, min_speedup=2.0)


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    if quick:
        # CI smoke: one device, fewer iterations; assert the recycled engine
        # is not slower than direct and its gradients stay faithful.  Writes
        # its own record so the full BENCH_invdes.json is never clobbered.
        record = run_benchmark(
            devices=DEVICES[:1], iterations=8, record_name="invdes_quick"
        )
        _check_record(record, min_speedup=1.0)
    else:
        record = run_benchmark()
        _check_record(record, min_speedup=2.0)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
