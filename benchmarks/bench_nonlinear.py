"""Kerr nonlinear fixed-point throughput: recycled-inner vs direct-inner.

Every outer iteration of the Kerr solve changes only the *diagonal* of the
FDFD operator (``eps_eff = eps + chi3 |E|^2``), which is exactly the workload
the recycled engine's reference-LU refinement path was built for: the direct
inner engine pays a full SuperLU factorization per Born iteration (the
effective permittivity never repeats), while the recycled inner tier keeps one
reference factorization and serves every subsequent iterate with
diagonal-update refinement.

Reported per device:

* **iterations/sec** of the damped Born fixed point with direct vs recycled
  inner solves at matched nonlinear tolerance, over a sweep of nearby designs
  (the inverse-design operating point) — plus the relative field disagreement
  between the two fixed points, so speed never silently buys a wrong answer;
* **gradient cosine vs finite differences** of the implicit-function adjoint
  on both Kerr zoo devices (via the shared ``tests/helpers/fd_grad``);
* **power-sweep transfer curves** over ``device.power_sweep`` — the
  all-optical-switch / limiter behaviour the zoo devices exist to exhibit.

Run directly (``python benchmarks/bench_nonlinear.py``; ``--quick`` for the CI
smoke variant) or through pytest.  Emits the standard ``BENCH_nonlinear.json``.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent))

from common import print_table, write_bench_record  # noqa: E402

from repro.devices.factory import make_device  # noqa: E402
from repro.fdfd.engine import FactorizationCache, make_engine, resolve_engine  # noqa: E402
from repro.fdfd.nonlinear import KerrNonlinearity, NonlinearSimulation  # noqa: E402
import repro.fdfd.simulation as _simulation  # noqa: E402
from repro.invdes.adjoint import Sweep, evaluate_specs  # noqa: E402
from tests.helpers.fd_grad import (  # noqa: E402
    fd_gradient,
    gradient_cosine,
    sample_pixels,
)

DEVICES = ("kerr_switch", "kerr_limiter")

# Throughput runs at the fine cell size where a factorization is expensive
# enough to matter; gradient/transfer probes use the tiny grid (finite
# differences re-converge the fixed point twice per probed pixel).
THROUGHPUT_KWARGS = dict(domain=4.0, design_size=2.0, dl=0.05)
PROBE_KWARGS = dict(domain=3.0, design_size=1.4, dl=0.1)

#: Matched tolerances: both inner tiers drive the same nonlinear rtol, and the
#: recycled refinement runs tight enough that inner error never limits it.
NONLINEAR_RTOL = 1e-8
INNER_RTOL = 1e-10

DESIGN_SWEEP = 4
REPEATS = 2
FD_PIXELS = 4


def _fresh_engine(name: str, device):
    """Engine with a private cache so runs cannot share factorizations.

    The recycled tier recycles on the device's design region; the direct
    arm stays a full-grid LU per iteration.
    """
    if name == "recycled":
        return resolve_engine(
            name,
            design_region=device.geometry.design_slice,
            rtol=INNER_RTOL,
            cache=FactorizationCache(),
        )
    return make_engine(name, cache=FactorizationCache())


def _design_sweep(device, count: int) -> list[np.ndarray]:
    """A base design plus nearby perturbations — the optimizer-step regime."""
    base = np.full(device.design_shape, 0.5)
    rng = np.random.default_rng(11)
    return [base] + [
        np.clip(base + 0.02 * rng.normal(size=base.shape), 0.0, 1.0)
        for _ in range(count - 1)
    ]


def _run_sweep(device, engine_name: str, designs: list[np.ndarray]):
    """Solve the high-power spec on every design; best-of-``REPEATS`` timing.

    The Born method is used so every outer iteration presents a *new*
    effective permittivity to the inner engine — the path where the direct
    tier refactorizes and the recycled tier refines.
    """
    spec = device.specs[-1]  # the high-power (most nonlinear) target
    best, iterations, inner_solves, last_ez = float("inf"), 0, 0, None
    for _ in range(REPEATS):
        _simulation._NORMALIZATION_CACHE.clear()
        engine = _fresh_engine(engine_name, device)
        iterations = inner_solves = 0
        start = time.perf_counter()
        for density in designs:
            sim = NonlinearSimulation(
                device.grid,
                device.eps_with_design(density),
                spec.wavelength,
                device.geometry.ports,
                chi3=device.chi3_map(),
                engine=engine,
                source_scale=float(spec.state.get("power", 1.0)),
                method="born",
                rtol=NONLINEAR_RTOL,
            )
            result = sim.solve(spec.source_port, monitor_ports=spec.monitored_ports())
            stats = sim.last_stats[0]
            iterations += stats.iterations
            inner_solves += stats.inner_solves
            last_ez = result.ez
        best = min(best, time.perf_counter() - start)
    return {
        "wall_clock_s": best,
        "outer_iterations": iterations,
        "inner_solves": inner_solves,
        "iterations_per_s": iterations / best,
    }, last_ez


def _gradient_vs_fd(device_name: str, pixels: int) -> float:
    """Cosine between the implicit-function adjoint and central differences."""
    device = make_device(device_name, **PROBE_KWARGS)
    density = np.random.default_rng(3).uniform(0.3, 0.7, device.design_shape)
    sweep = Sweep(nonlinearity=KerrNonlinearity(rtol=1e-10))
    spec = device.specs[-1]
    evaluation = evaluate_specs(device, density, specs=[spec], sweep=sweep)[0]

    def value(d):
        return evaluate_specs(
            device, d, specs=[spec], sweep=sweep, compute_gradient=False
        )[0].objective_value

    where = sample_pixels(density.shape, count=pixels, rng=0)
    numeric = fd_gradient(value, density, where, step=1e-4)
    analytic = np.array([evaluation.grad_density[p] for p in where])
    return gradient_cosine(analytic, numeric)


def _transfer_curve(device_name: str) -> dict:
    """Transmissions vs injected power over the device's published sweep."""
    device = make_device(device_name, **PROBE_KWARGS)
    eps = device.eps_with_design(np.full(device.design_shape, 0.5))
    spec = device.specs[0]
    curve = {"powers": list(device.power_sweep), "transmissions": {}}
    for power in device.power_sweep:
        sim = NonlinearSimulation(
            device.grid,
            eps,
            spec.wavelength,
            device.geometry.ports,
            chi3=device.chi3_map(),
            source_scale=float(power),
            rtol=NONLINEAR_RTOL,
        )
        result = sim.solve(spec.source_port, monitor_ports=spec.monitored_ports())
        for port, value in result.transmissions.items():
            curve["transmissions"].setdefault(port, []).append(float(value))
    return curve


def run_benchmark(
    devices=DEVICES,
    design_sweep: int = DESIGN_SWEEP,
    fd_pixels: int = FD_PIXELS,
    record_name: str = "nonlinear",
) -> dict:
    results = []
    for device_name in devices:
        device = make_device(device_name, **THROUGHPUT_KWARGS)
        designs = _design_sweep(device, design_sweep)
        direct, direct_ez = _run_sweep(device, "direct", designs)
        recycled, recycled_ez = _run_sweep(device, "recycled", designs)
        field_drift = float(
            np.linalg.norm(recycled_ez - direct_ez) / np.linalg.norm(direct_ez)
        )
        results.append(
            {
                "device": device_name,
                "dl": THROUGHPUT_KWARGS["dl"],
                "designs": len(designs),
                "nonlinear_rtol": NONLINEAR_RTOL,
                "engines": {"direct": direct, "recycled": recycled},
                "speedup_recycled_vs_direct": (
                    recycled["iterations_per_s"] / direct["iterations_per_s"]
                ),
                "field_drift_recycled_vs_direct": field_drift,
                "gradient_cosine_vs_fd": _gradient_vs_fd(device_name, fd_pixels),
                "transfer_curve": _transfer_curve(device_name),
            }
        )

    rows = [
        [
            r["device"],
            f"{r['engines']['direct']['iterations_per_s']:.2f}",
            f"{r['engines']['recycled']['iterations_per_s']:.2f}",
            f"{r['speedup_recycled_vs_direct']:.2f}x",
            f"{r['field_drift_recycled_vs_direct']:.2e}",
            f"{r['gradient_cosine_vs_fd']:.6f}",
        ]
        for r in results
    ]
    print_table(
        "Kerr fixed-point throughput (Born outer iterations/sec)",
        ["device", "direct it/s", "recycled it/s", "speedup", "field drift",
         "grad cosine vs FD"],
        rows,
    )
    record = {"results": results}
    path = write_bench_record(record_name, record)
    print(f"wrote {path}")
    return record


def _check_record(record: dict, min_speedup: float) -> None:
    """Shared gate: recycled-inner must be fast, faithful, and differentiable."""
    for result in record["results"]:
        speedup = result["speedup_recycled_vs_direct"]
        assert speedup >= min_speedup, (
            f"{result['device']}: recycled-inner speedup only {speedup:.2f}x "
            f"(need >= {min_speedup}x)"
        )
        drift = result["field_drift_recycled_vs_direct"]
        assert drift < 1e-6, f"{result['device']}: field drift {drift:.2e}"
        cosine = result["gradient_cosine_vs_fd"]
        assert cosine >= 0.999, (
            f"{result['device']}: adjoint-vs-FD cosine {cosine:.6f} < 0.999"
        )


def test_recycled_inner_speedup():
    """Recycled inner solves beat per-iteration refactorization >= 1.5x."""
    record = run_benchmark()
    _check_record(record, min_speedup=1.5)


def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    if quick:
        # CI smoke: one device, smaller sweep; assert recycled-inner is not
        # slower than direct-inner and the adjoint stays FD-faithful.  Writes
        # its own record so the full BENCH_nonlinear.json is never clobbered.
        record = run_benchmark(
            devices=DEVICES[:1],
            design_sweep=2,
            fd_pixels=2,
            record_name="nonlinear_quick",
        )
        _check_record(record, min_speedup=1.0)
    else:
        record = run_benchmark()
        _check_record(record, min_speedup=1.5)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
