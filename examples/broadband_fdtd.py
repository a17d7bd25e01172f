"""Broadband labels from one pulsed FDTD run.

Run with::

    python examples/broadband_fdtd.py

The frequency-domain tiers pay one factorization + solve per wavelength; the
time-domain tier (``engine="fdtd"``) drives a band-covering pulse through the
source port once and extracts fields at *every* requested wavelength with
running DFTs.  This script evaluates the WDM demultiplexer across the
1.53-1.57 um band both ways, prints the per-wavelength transmissions side by
side (they agree to ~0.2%), compares wall-clock, and finishes by generating a
small broadband-labelled shard dataset — the same ``Sweep(wavelengths=...)``,
plumbed through the sharded generator (CLI: ``--wavelengths``).

Set ``REPRO_EXAMPLES_QUICK=1`` for a seconds-scale smoke run (used by CI).
"""

import os
import time

import numpy as np

from repro.data.generator import generate_dataset
from repro.devices import make_device
from repro.fdfd.engine import make_engine
from repro.invdes.adjoint import NumericalFieldBackend, Sweep, evaluate_specs

QUICK = os.environ.get("REPRO_EXAMPLES_QUICK", "") not in ("", "0")


def main() -> None:
    # 1. A WDM demultiplexer: the device whose job *is* wavelength splitting,
    #    so broadband labels are what you actually want for it.
    if QUICK:
        device = make_device("wdm", fidelity="low")
        wavelengths = [1.53, 1.55, 1.57]
    else:
        device = make_device("wdm", fidelity="high", dl=0.06)
        wavelengths = list(np.round(np.linspace(1.53, 1.57, 7), 6))
    density = np.random.default_rng(3).random(device.design_shape)
    print(f"device: {device.name}, grid {device.grid.shape}, "
          f"{len(wavelengths)} wavelengths in [{wavelengths[0]}, {wavelengths[-1]}] um")

    # 2. One pulsed time-domain run labels the whole band at once.  The first
    #    call also integrates the straight-waveguide normalization reference
    #    (as a second batch item of the same run); it is cached process-wide
    #    afterwards, so later designs pay a single integration each.
    band = Sweep(wavelengths=wavelengths)
    fdtd = NumericalFieldBackend(engine=make_engine("fdtd", precision="single"))
    start = time.perf_counter()
    broadband = evaluate_specs(
        device, density, backend=fdtd, compute_gradient=False, sweep=band
    )
    fdtd_s = time.perf_counter() - start

    # 3. The same labels from the frequency domain: any non-FDTD engine falls
    #    back to one solve per wavelength behind the identical API.
    direct = NumericalFieldBackend(engine=make_engine("direct"))
    start = time.perf_counter()
    reference = evaluate_specs(
        device, density, backend=direct, compute_gradient=False, sweep=band
    )
    fdfd_s = time.perf_counter() - start

    # 4. Side-by-side transmissions, wavelength-major (w0 x specs, w1 x ...).
    ports = sorted(reference[0].transmissions)
    print(f"\n{'lambda [um]':>11}  {'port':>6}  {'FDTD':>8}  {'FDFD':>8}  {'diff':>8}")
    for index, (got, ref) in enumerate(zip(broadband, reference)):
        if index % len(device.specs) != 0:
            continue  # one excitation per wavelength is enough for the table
        for port in ports:
            print(
                f"{got.spec.wavelength:>11.4f}  {port:>6}  "
                f"{got.transmissions[port]:>8.4f}  {ref.transmissions[port]:>8.4f}  "
                f"{abs(got.transmissions[port] - ref.transmissions[port]):>8.1e}"
            )
    worst = max(
        abs(g.transmissions[p] - r.transmissions[p])
        for g, r in zip(broadband, reference)
        for p in r.transmissions
    )
    print(f"\nworst transmission disagreement: {worst:.4f}")
    print(f"FDTD (one pulsed run): {fdtd_s:.2f}s   "
          f"FDFD ({len(wavelengths)} solves): {fdfd_s:.2f}s")

    # 5. Broadband shards: the same sweep rides through the sharded generator
    #    (forward-only — gradients stay single-wavelength), giving datasets
    #    with one sample per (design, fidelity, wavelength, excitation).
    dataset = generate_dataset(
        "wdm",
        "random",
        num_designs=2,
        fidelities=("low",),
        with_gradient=False,
        engine="fdtd",
        sweep=band,
        shard_dir="broadband_shards",
    )
    sampled = sorted({float(s.wavelength) for s in (dataset[i] for i in range(len(dataset)))})
    print(f"\ngenerated {len(dataset)} broadband samples into broadband_shards/ "
          f"at wavelengths {sampled}")


if __name__ == "__main__":
    main()
