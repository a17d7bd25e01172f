"""Broadband FDTD tier: one pulsed run vs. N frequency-domain solves.

The claim of the time-domain tier (:mod:`repro.fdtd`) is that broadband
labels change the per-design economics: a single pulsed run with running
DFTs yields transmissions at every requested wavelength at once, where the
frequency-domain path pays one factorization + solve *per wavelength*.  This
benchmark measures, across band sample counts N, on the WDM demultiplexer:

* per-design wall time of the per-wavelength ``direct`` FDFD path,
* per-design wall time of the FDTD path, cold (first design: the
  normalization reference rides along as a second batch item of the same
  time integration) and warm (every later design: normalization cached),
* the broadband accuracy: worst per-wavelength transmission disagreement
  between the two tiers.

Timings use *fresh random designs* per repeat — that is the dataset-generation
regime both tiers actually run in: a new design invalidates every
device-solve factorization, while the input-waveguide normalization caches
(both tiers have one) stay warm.

The FDTD run cost is nearly flat in N (the DFT extraction is a per-snapshot
matmul), so the crossover against warm per-wavelength FDFD sits around N~5
on this device and the win grows linearly from there (~2.7x at N=9, ~4x at
N=15 measured).

Run directly (``python benchmarks/bench_fdtd.py``) for the committed
``BENCH_fdtd.json`` record; ``--quick`` runs the N=15 configuration and
asserts the CI gate: transmissions agree with per-wavelength ``direct``
FDFD to <= 2% and one warm FDTD run undercuts the N-solve FDFD path by at
least 2x.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))

from common import print_table, write_bench_record  # noqa: E402

import repro.fdtd.broadband as broadband  # noqa: E402
from repro.devices.factory import make_device  # noqa: E402
from repro.fdfd.engine import DirectEngine, FactorizationCache  # noqa: E402
from repro.invdes.adjoint import NumericalFieldBackend, Sweep, evaluate_specs  # noqa: E402

BAND = (1.53, 1.57)
WAVELENGTH_COUNTS = (5, 9, 15)
REPEATS = 3
DL = 0.04
ERROR_GATE = 0.02


def _fdtd_backend() -> NumericalFieldBackend:
    from repro.fdfd.engine import make_engine

    return NumericalFieldBackend(
        engine=make_engine("fdtd", courant=0.99, decay_tol=1e-3, precision="single")
    )


def _fdfd_backend() -> NumericalFieldBackend:
    # Fresh cache: each design must pay its factorizations, as in generation.
    return NumericalFieldBackend(engine=DirectEngine(cache=FactorizationCache()))


def _forward(device, density, backend, wavelengths):
    return evaluate_specs(
        device,
        density,
        backend=backend,
        compute_gradient=False,
        sweep=Sweep(wavelengths=wavelengths),
    )


def _max_error(reference, evaluations) -> float:
    """Worst transmission disagreement, relative with a small absolute floor."""
    worst = 0.0
    for ref, got in zip(reference, evaluations):
        for port, value in ref.transmissions.items():
            err = abs(got.transmissions[port] - value) / max(value, 0.25)
            worst = max(worst, err)
    return worst


def run_benchmark(wavelength_counts=WAVELENGTH_COUNTS, repeats=REPEATS, quick=False) -> dict:
    device = make_device("wdm", fidelity="high", dl=DL)
    rng = np.random.default_rng(0)
    densities = [rng.random(device.design_shape) for _ in range(repeats + 1)]

    results = []
    for count in wavelength_counts:
        wavelengths = list(np.round(np.linspace(*BAND, count), 6))

        # Warm both tiers' normalization caches (and measure the FDTD cold
        # start while doing so: the first design of any run pays it).
        broadband._NORM_CACHE.clear()
        fdtd_backend = _fdtd_backend()
        start = time.perf_counter()
        _forward(device, densities[0], fdtd_backend, wavelengths)
        fdtd_cold = time.perf_counter() - start
        fdfd_reference = _forward(device, densities[0], _fdfd_backend(), wavelengths)

        fdtd_warm = float("inf")
        fdfd_total = float("inf")
        for density in densities[1:]:
            start = time.perf_counter()
            fdtd_evals = _forward(device, density, fdtd_backend, wavelengths)
            fdtd_warm = min(fdtd_warm, time.perf_counter() - start)
            start = time.perf_counter()
            fdfd_evals = _forward(device, density, _fdfd_backend(), wavelengths)
            fdfd_total = min(fdfd_total, time.perf_counter() - start)
        max_err = _max_error(fdfd_evals, fdtd_evals)
        # Cold-start accuracy too: the cached normalization must not drift.
        max_err = max(
            max_err,
            _max_error(fdfd_reference, _forward(device, densities[0], fdtd_backend, wavelengths)),
        )

        results.append(
            {
                "grid": list(device.grid.shape),
                "n_wavelengths": count,
                "band_um": list(BAND),
                "fdfd_total_s": fdfd_total,
                "fdfd_per_wavelength_s": fdfd_total / count,
                "fdtd_cold_s": fdtd_cold,
                "fdtd_warm_s": fdtd_warm,
                "speedup_cold": fdfd_total / fdtd_cold,
                "speedup_warm": fdfd_total / fdtd_warm,
                "max_transmission_err": max_err,
            }
        )

    rows = [
        [
            f"{r['n_wavelengths']}",
            f"{r['fdfd_total_s']:.2f}",
            f"{r['fdtd_cold_s']:.2f}",
            f"{r['fdtd_warm_s']:.2f}",
            f"{r['speedup_cold']:.2f}x",
            f"{r['speedup_warm']:.2f}x",
            f"{r['max_transmission_err'] * 100:.2f}%",
        ]
        for r in results
    ]
    print_table(
        f"Broadband FDTD vs per-wavelength direct FDFD (wdm, {results[0]['grid'][0]}"
        f"x{results[0]['grid'][1]}, {BAND[0]}-{BAND[1]} um)",
        ["N", "NxFDFD [s]", "FDTD cold [s]", "FDTD warm [s]", "cold", "warm", "max err"],
        rows,
    )

    record = {"device": "wdm", "dl": DL, "results": results}
    if quick:
        _assert_quick_contracts(record)
    path = write_bench_record("fdtd_quick" if quick else "fdtd", record)
    print(f"wrote {path}")
    return record


def _assert_quick_contracts(record: dict) -> None:
    """The CI gate: broadband labels are accurate and actually cheaper.

    Gated at N=15, where the measured warm speedup is ~4x — asserting >= 2x
    leaves ~2x headroom against CI timing noise.  (At the N~5 crossover the
    warm win is ~1.2x, within noise, so it is reported in the committed
    record but not gated on.)
    """
    for result in record["results"]:
        assert result["max_transmission_err"] <= ERROR_GATE, (
            f"broadband transmissions disagree with direct FDFD by "
            f"{result['max_transmission_err'] * 100:.2f}% (gate {ERROR_GATE * 100:.0f}%)"
        )
        # The headline claim: one warm FDTD run (the steady state of dataset
        # generation, where the normalization is cached across designs) labels
        # all N wavelengths at least 2x cheaper than N direct FDFD solves.
        assert result["speedup_warm"] >= 2.0, (
            f"warm speedup {result['speedup_warm']:.2f}x below 2x for "
            f"{result['n_wavelengths']} wavelengths"
        )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="N=15 run with hard assertions (the CI gate)",
    )
    args = parser.parse_args(argv)
    if args.quick:
        run_benchmark(wavelength_counts=(15,), repeats=2, quick=True)
    else:
        run_benchmark()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
