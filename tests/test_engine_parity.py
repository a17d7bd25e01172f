"""Cross-engine parity matrix: every fidelity tier must agree with ``direct``.

One parametrized suite asserting forward fields, adjoint gradients and
``evaluate_specs`` labels agree between ``direct`` and ``recycled`` on two
devices x two grid sizes — the single place engine regressions surface.
The ``neural`` tier (registered from a checkpoint) is exercised for
plumbing, not accuracy: a surrogate's numbers depend on its training, so it
is asserted to run end to end and produce finite, well-shaped results.
The nonlinear (Kerr) tier gets its own matrix: Born vs Newton,
recycled-inner vs direct-inner fixed points, and the ``chi3 = 0`` linear
limit, across the two Kerr zoo devices x two grids.
"""

import numpy as np
import pytest

from repro.devices.factory import make_device
from repro.fdfd.engine import make_engine
from repro.fdfd.nonlinear import NonlinearSimulation
from repro.fdfd.simulation import Simulation
from repro.invdes.adjoint import NumericalFieldBackend, Sweep, evaluate_specs

# (case id, device name, device kwargs) — two devices x two grid sizes.
CASES = [
    ("bending-dl0.10", "bending", dict(domain=3.0, design_size=1.4, dl=0.1)),
    ("bending-dl0.08", "bending", dict(domain=3.0, design_size=1.4, dl=0.08)),
    ("crossing-dl0.10", "crossing", dict(domain=3.0, design_size=1.4, dl=0.1)),
    ("crossing-dl0.08", "crossing", dict(domain=3.0, design_size=1.4, dl=0.08)),
]
CASE_IDS = [case[0] for case in CASES]

ENGINES = ["recycled"]


def _density(device) -> np.ndarray:
    return np.random.default_rng(7).uniform(0.2, 0.8, size=device.design_shape)


def _evaluate(device, density, engine):
    backend = NumericalFieldBackend(engine=engine)
    return evaluate_specs(device, density, backend=backend, compute_gradient=True)


@pytest.fixture(scope="module")
def parity_reference():
    """Per-case direct-engine reference evaluations, computed once."""
    references = {}
    for case_id, device_name, device_kwargs in CASES:
        device = make_device(device_name, **device_kwargs)
        density = _density(device)
        references[case_id] = (
            device,
            density,
            _evaluate(device, density, make_engine("direct")),
        )
    return references


@pytest.mark.parametrize("engine_name", ENGINES)
@pytest.mark.parametrize("case_id", CASE_IDS)
class TestEngineParity:
    def _case(self, parity_reference, case_id, engine_name):
        device, density, reference = parity_reference[case_id]
        evaluations = _evaluate(device, density, make_engine(engine_name))
        assert len(evaluations) == len(reference) == len(device.specs)
        return reference, evaluations

    def test_forward_fields_agree(self, parity_reference, case_id, engine_name):
        reference, evaluations = self._case(parity_reference, case_id, engine_name)
        for ref, got in zip(reference, evaluations):
            scale = np.linalg.norm(ref.result.ez)
            assert np.linalg.norm(got.result.ez - ref.result.ez) / scale < 1e-5

    def test_adjoint_gradients_agree(self, parity_reference, case_id, engine_name):
        reference, evaluations = self._case(parity_reference, case_id, engine_name)
        for ref, got in zip(reference, evaluations):
            scale = max(np.abs(ref.grad_density).max(), 1e-30)
            np.testing.assert_allclose(
                got.grad_density, ref.grad_density, atol=1e-5 * scale
            )

    def test_labels_agree(self, parity_reference, case_id, engine_name):
        reference, evaluations = self._case(parity_reference, case_id, engine_name)
        for ref, got in zip(reference, evaluations):
            assert got.objective_value == pytest.approx(ref.objective_value, abs=1e-7)
            assert set(got.transmissions) == set(ref.transmissions)
            for port, value in ref.transmissions.items():
                assert got.transmissions[port] == pytest.approx(value, abs=1e-7)


# Nonlinear parity matrix: the two Kerr zoo devices x two grid sizes.
KERR_CASES = [
    ("kerr_switch-dl0.10", "kerr_switch", dict(domain=3.0, design_size=1.4, dl=0.1)),
    ("kerr_switch-dl0.08", "kerr_switch", dict(domain=3.0, design_size=1.4, dl=0.08)),
    ("kerr_limiter-dl0.10", "kerr_limiter", dict(domain=3.0, design_size=1.4, dl=0.1)),
    ("kerr_limiter-dl0.08", "kerr_limiter", dict(domain=3.0, design_size=1.4, dl=0.08)),
]
KERR_CASE_IDS = [case[0] for case in KERR_CASES]


@pytest.fixture(scope="module")
def kerr_cases():
    cases = {}
    for case_id, device_name, device_kwargs in KERR_CASES:
        device = make_device(device_name, **device_kwargs)
        density = _density(device)
        cases[case_id] = (device, density, device.eps_with_design(density))
    return cases


@pytest.mark.parametrize("case_id", KERR_CASE_IDS)
class TestNonlinearParity:
    """Self-consistency of the Kerr fixed point across methods and engines."""

    RTOL = 1e-10

    def _solve(self, device, eps, engine=None, method="newton", chi3=None):
        spec = device.specs[0]
        sim = NonlinearSimulation(
            device.grid,
            eps,
            spec.wavelength,
            device.geometry.ports,
            chi3=device.chi3_map() if chi3 is None else chi3,
            engine=engine,
            source_scale=float(spec.state.get("power", 1.0)),
            method=method,
            rtol=self.RTOL,
        )
        result = sim.solve(spec.source_port, monitor_ports=spec.monitored_ports())
        return sim, result

    def test_born_and_newton_find_the_same_fixed_point(self, kerr_cases, case_id):
        device, _, eps = kerr_cases[case_id]
        _, born = self._solve(device, eps, method="born")
        _, newton = self._solve(device, eps, method="newton")
        scale = np.linalg.norm(newton.ez)
        assert np.linalg.norm(born.ez - newton.ez) / scale < 1e-6

    def test_recycled_inner_matches_direct_inner(self, kerr_cases, case_id):
        """An approximate (refinement-based) inner tier must converge to the
        same fixed point as exact inner solves, to the nonlinear tolerance."""
        device, _, eps = kerr_cases[case_id]
        _, direct = self._solve(device, eps, engine=make_engine("direct"))
        recycled_sim, recycled = self._solve(
            device, eps, engine=make_engine("recycled", rtol=1e-12)
        )
        scale = np.linalg.norm(direct.ez)
        assert np.linalg.norm(recycled.ez - direct.ez) / scale < 1e-8
        stats = recycled_sim.last_stats[0]
        # The recycled tier must actually ride its refinement path (one
        # reference factorization, the rest recycled diagonal updates) —
        # this is the seam the nonlinear workload was built to exercise.
        assert stats.engine_stats["recycled"]["recycled_solves"] > 0

    def test_linear_limit_is_bit_identical(self, kerr_cases, case_id):
        """chi3 = 0 must reproduce the linear solve exactly — same bytes."""
        device, _, eps = kerr_cases[case_id]
        spec = device.specs[0]
        _, nonlinear = self._solve(device, eps, chi3=0.0)
        linear_sim = Simulation(device.grid, eps, spec.wavelength, device.geometry.ports)
        scale = float(spec.state.get("power", 1.0))
        source = linear_sim.mode_source(spec.source_port, spec.source_mode) * scale
        linear = linear_sim.solve(
            source=source,
            source_port=spec.source_port,
            monitor_ports=spec.monitored_ports(),
        )
        assert np.array_equal(nonlinear.ez, linear.ez)


class TestFdtdTierParity:
    """Time-domain tier vs ``direct`` FDFD, single-frequency and broadband.

    The FDTD fields satisfy the FDFD equations at the target frequency exactly
    in the interior (frequency-warped DFT extraction); what remains is the
    absorbing-boundary model difference and the ring-down truncation, so the
    tolerances here are physical (percent-level transmissions), not the 1e-5
    numerical parity of the frequency-domain tiers.
    """

    #: Five extraction wavelengths across the 1.53-1.57 um band — one pulsed
    #: run serves all of them.
    WAVELENGTHS = [1.53, 1.54, 1.55, 1.56, 1.57]

    @staticmethod
    def _fdtd_engine():
        return make_engine("fdtd", courant=0.99, decay_tol=3e-4, precision="single")

    def _forward(self, device, density, engine, wavelengths=None):
        return evaluate_specs(
            device,
            density,
            backend=NumericalFieldBackend(engine=engine),
            compute_gradient=False,
            sweep=Sweep(wavelengths=wavelengths),
        )

    def test_single_frequency_matches_direct(self):
        device = make_device("bending", domain=3.0, design_size=1.4, dl=0.1)
        density = _density(device)
        reference = self._forward(device, density, make_engine("direct"))
        evaluations = self._forward(device, density, self._fdtd_engine())
        for ref, got in zip(reference, evaluations):
            assert set(got.transmissions) == set(ref.transmissions)
            for port, value in ref.transmissions.items():
                assert abs(got.transmissions[port] - value) <= max(0.02 * value, 0.005)
            assert got.objective_value == pytest.approx(
                ref.objective_value, abs=max(0.02 * ref.objective_value, 0.005)
            )

    @pytest.mark.parametrize(
        "device_name,device_kwargs",
        [
            ("bending", dict(domain=3.0, design_size=1.4, dl=0.1)),
            ("wdm", dict(fidelity="high", dl=0.06)),
        ],
        ids=["bending", "wdm"],
    )
    def test_broadband_matches_per_wavelength_direct(self, device_name, device_kwargs):
        """One pulsed run agrees with N direct solves to <= 2% per wavelength."""
        device = make_device(device_name, **device_kwargs)
        density = _density(device)
        evaluations = self._forward(
            device, density, self._fdtd_engine(), wavelengths=self.WAVELENGTHS
        )
        reference = self._forward(
            device, density, make_engine("direct"), wavelengths=self.WAVELENGTHS
        )
        assert len(evaluations) == len(reference) == len(self.WAVELENGTHS) * len(
            device.specs
        )
        for ref, got in zip(reference, evaluations):
            assert got.spec.wavelength == ref.spec.wavelength
            assert got.result.ez.shape == device.grid.shape
            for port, value in ref.transmissions.items():
                # <= 2% relative error on meaningful transmissions, with a
                # small absolute floor where the reference is near zero.
                assert abs(got.transmissions[port] - value) <= max(0.02 * value, 0.005)


class TestNeuralTierPlumbing:
    """The surrogate tier runs through the same matrix; accuracy is its own
    benchmark (``bench_training.py``), so only well-formedness is asserted."""

    def test_neural_engine_through_evaluate_specs(self, tiny_checkpoint):
        path, _, _ = tiny_checkpoint
        device = make_device("bending", domain=3.0, design_size=1.4, dl=0.1)
        density = _density(device)
        evaluations = _evaluate(device, density, make_engine(f"neural:{path}"))
        assert len(evaluations) == len(device.specs)
        for evaluation in evaluations:
            assert np.isfinite(evaluation.objective_value)
            assert evaluation.result.ez.shape == device.grid.shape
            assert np.isfinite(evaluation.result.ez).all()
            assert np.isfinite(evaluation.grad_density).all()

    def test_neural_engine_is_cold_start_only(self, tiny_checkpoint):
        path, _, _ = tiny_checkpoint
        assert make_engine(f"neural:{path}").supports_warm_start is False
