"""Designing a Kerr all-optical switch on the nonlinear tier.

Run with::

    python examples/nonlinear_switch.py

A Kerr medium's refractive index depends on the local intensity
(``eps_eff = eps + chi3 |E|^2``), so the same structure can route light to
*different* ports depending on how hard it is driven — the all-optical switch.
This script walks the whole nonlinear tier end to end:

1. solve the Kerr fixed point of the ``kerr_switch`` zoo device and sweep its
   power-dependent transfer curve;
2. compare direct vs recycled inner solves — every outer iteration changes
   only the operator diagonal, so the recycled engine's reference-LU
   refinement path serves it without refactorizing;
3. optimize the device with the implicit-function adjoint
   (``InverseDesignProblem(..., nonlinearity=...)``) so low power exits one
   port and high power the other;
4. generate a small intensity-swept nonlinear dataset with a
   ``Sweep(nonlinearity=..., intensities=...)`` (the sharded generator CLI
   spells it ``--chi3`` / ``--intensities``).

Set ``REPRO_EXAMPLES_QUICK=1`` for a seconds-scale smoke run (used by CI).
"""

import os

import numpy as np

from repro.data.generator import generate_dataset
from repro.devices import make_device
from repro.fdfd.engine import resolve_engine
from repro.fdfd.nonlinear import KerrNonlinearity, NonlinearSimulation
from repro.invdes import AdjointOptimizer, InverseDesignProblem, Sweep

QUICK = os.environ.get("REPRO_EXAMPLES_QUICK", "") not in ("", "0")


def transfer_curve(device, density, label: str) -> None:
    """Print transmissions vs injected power over the device's sweep."""
    eps = device.eps_with_design(density)
    spec = device.specs[0]
    ports = sorted(spec.port_weights)
    print(f"\n{label}:")
    print(f"{'power':>7}  " + "  ".join(f"{p:>8}" for p in ports) + "  iterations")
    for power in device.power_sweep:
        sim = NonlinearSimulation(
            device.grid,
            eps,
            spec.wavelength,
            device.geometry.ports,
            chi3=device.chi3_map(),
            source_scale=float(power),
        )
        result = sim.solve(spec.source_port, monitor_ports=spec.monitored_ports())
        stats = sim.last_stats[0]
        row = "  ".join(f"{result.transmissions[p]:>8.4f}" for p in ports)
        print(f"{power:>7.2f}  {row}  {stats.iterations:>10d}")


def main() -> None:
    if QUICK:
        device = make_device("kerr_switch", domain=3.0, design_size=1.4, dl=0.1)
        iterations = 2
    else:
        device = make_device("kerr_switch", dl=0.08)
        iterations = 12
    print(f"device: {device.name}, grid {device.grid.shape}, chi3 {device.chi3:.2e}")

    # 1. The unoptimized (uniform) design already shows intensity dependence:
    #    the Kerr term detunes the structure as the drive goes up.
    uniform = np.full(device.design_shape, 0.5)
    transfer_curve(device, uniform, "uniform design, transmissions vs power")

    # 2. The recycling seam: each outer iteration presents a diagonal-only
    #    operator update, so the recycled tier factorizes once and refines.
    #    It recycles on the design region; "direct" condenses onto it too.
    spec = device.specs[-1]
    eps = device.eps_with_design(uniform)
    for engine_name in ("direct", "recycled"):
        sim = NonlinearSimulation(
            device.grid,
            eps,
            spec.wavelength,
            device.geometry.ports,
            chi3=device.chi3_map(),
            engine=resolve_engine(engine_name, design_region=device.geometry.design_slice),
            source_scale=float(spec.state.get("power", 1.0)),
            method="born",
        )
        sim.solve(spec.source_port)
        stats = sim.last_stats[0]
        inner = stats.engine_stats.get(engine_name, {})
        detail = (
            f", factorizations {inner.get('factorizations')}, "
            f"recycled {inner.get('recycled_solves')}"
            if engine_name == "recycled"
            else ""
        )
        print(
            f"{engine_name:>9} inner: {stats.iterations} outer iterations, "
            f"{stats.inner_solves} inner solves{detail}"
        )

    # 3. Optimize: the adjoint differentiates *through* the converged fixed
    #    point (implicit-function formulation), so the optimizer shapes the
    #    nonlinear response itself — low power to out1, high power to out2.
    problem = InverseDesignProblem(
        device,
        engine="recycled",  # given the design region by name
        nonlinearity=KerrNonlinearity(),
    )
    optimizer = AdjointOptimizer(problem, learning_rate=0.05)
    trajectory = optimizer.run(
        theta0=problem.initial_theta("uniform"), iterations=iterations
    )
    print(
        f"\noptimized {iterations} Adam steps: FoM "
        f"{trajectory[0].fom:.4f} -> {trajectory[-1].fom:.4f}"
    )
    transfer_curve(
        device,
        problem.density_from_theta(trajectory[-1].theta),
        "optimized design, transmissions vs power",
    )

    # 4. Nonlinear datasets: a sweep with a ``chi3`` nonlinearity switches the
    #    sharded generator onto the Kerr tier and ``intensities`` sweeps the
    #    drive per design (CLI: ``--chi3 1.3e8 --intensities 0.5 1 2``).
    dataset = generate_dataset(
        "kerr_switch",
        "random",
        num_designs=2,
        fidelities=("low",),
        with_gradient=False,
        sweep=Sweep(
            nonlinearity=KerrNonlinearity(chi3=device.chi3), intensities=(0.5, 1.0)
        ),
        device_kwargs=dict(domain=3.0, design_size=1.4),
        shard_dir="kerr_shards",
    )
    print(
        f"\ngenerated {len(dataset)} nonlinear samples into kerr_shards/ "
        f"(chi3 {dataset.metadata['chi3']:.2e}, "
        f"intensities {dataset.metadata['intensities']})"
    )


if __name__ == "__main__":
    main()
