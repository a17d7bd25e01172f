"""Quickstart: simulate a waveguide bend and inverse-design it in ~30 seconds.

Run with::

    python examples/quickstart.py

The script walks through the three MAPS components at their smallest scale:
build a benchmark device, simulate it with the FDFD solver, run a short
adjoint optimization (``engine="recycled"``, the optimization-loop solver
tier) and print the optimization trajectory.  Other tiers — the exact
``"direct"`` or a promoted surrogate ``"neural:<checkpoint.npz>"`` — are a
one-line swap.

Set ``REPRO_EXAMPLES_QUICK=1`` for a seconds-scale smoke run (used by CI).
"""

import os

import numpy as np

from repro.devices import make_device
from repro.invdes import AdjointOptimizer, InverseDesignProblem
from repro.parametrization.analysis import binarization_level

QUICK = os.environ.get("REPRO_EXAMPLES_QUICK", "") not in ("", "0")


def main() -> None:
    # 1. Build a benchmark device (low fidelity = coarse mesh, fast solves).
    size = dict(domain=3.0, design_size=1.4) if QUICK else dict(domain=3.5, design_size=1.8)
    device = make_device("bending", fidelity="low", **size)
    print(f"device: {device.name}, grid {device.grid.shape}, design {device.design_shape}")

    # 2. Simulate an initial guess and inspect the rich outputs.
    density = device.initial_density("waveguide")
    spec = device.specs[0]
    result = device.simulate_spec(density, spec)
    print(f"initial transmission to 'out': {result.transmissions['out']:.3f}")
    print(f"radiation loss: {result.radiation:.3f}")

    # 3. Inverse design: maximize transmission with the adjoint method.
    #    engine="recycled" is the optimization-loop solver tier: instead of
    #    re-factorizing the Maxwell operator every Adam step, it recycles the
    #    previous factorization (plus warm-started solves), and since a step
    #    only moves the design pixels, it factors and refines just the design
    #    region against a device exterior factored once.  The exterior is
    #    also summarized at the ports, so each step computes fields only on
    #    the design region and the port lines; a full field map is recovered
    #    when read.  Gradients match exact solves to the solver tolerance.
    #    Drop the argument (exact
    #    direct solves) or pass engine="neural:<checkpoint.npz>" to pick
    #    another solver tier.
    problem = InverseDesignProblem(device, engine="recycled")
    optimizer = AdjointOptimizer(
        problem, learning_rate=0.2, beta_schedule={0: 4.0, 10: 8.0, 20: 16.0}
    )
    trajectory = optimizer.run(
        theta0=problem.initial_theta("waveguide"),
        iterations=4 if QUICK else 25,
        verbose=True,
    )

    best = trajectory.best()
    print(f"\nbest figure of merit:    {best.fom:.3f} (iteration {best.iteration})")
    print(f"final binarization:      {binarization_level(trajectory[-1].density):.3f}")
    verified = device.figure_of_merit(best.density)
    print(f"FDFD-verified final FoM: {verified:.3f}")

    # 4. The optimized density is a plain NumPy array — save it for later use.
    np.save("bend_optimized_density.npy", best.density)
    print("saved optimized design to bend_optimized_density.npy")


if __name__ == "__main__":
    main()
