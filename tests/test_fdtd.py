"""Unit tests for the time-domain (FDTD) tier.

Covers the leapfrog core (dispersion warping, pulse design, CPML decay,
batched/per-batch stepping, precision variants), the broadband facade
(normalization cache, combined device+reference run) and the broadband
dataset plumbing (``evaluate_specs(wavelengths=...)`` through labels and
generator).  Cross-engine accuracy lives in ``test_engine_parity.py``.
"""

import numpy as np
import pytest

import repro.fdtd.broadband as broadband
from repro.constants import wavelength_to_omega
from repro.data.labels import extract_labels_batch
from repro.devices.factory import make_device
from repro.fdfd.engine import make_engine
from repro.fdfd.grid import Grid
from repro.fdfd.simulation import Simulation
from repro.fdfd.solver import FdfdSolver
from repro.fdtd.broadband import FdtdSimulation
from repro.fdtd.core import (
    FdtdStepper,
    GaussianPulse,
    courant_timestep,
    design_pulse,
    run_pulsed,
    warped_frequency,
)
from repro.fdtd.engine import FdtdFrequencyEngine
from repro.invdes.adjoint import NumericalFieldBackend, Sweep, evaluate_specs
from repro.invdes.objectives import objective_for_spec
from repro.utils.cache import BoundedCache


def _grid(n: int = 50, dl: float = 0.05, npml: int = 10) -> Grid:
    return Grid(nx=n, ny=n, dl=dl, npml=npml)


def _point_current(grid: Grid, batch: int = 1) -> np.ndarray:
    currents = np.zeros((batch,) + grid.shape, dtype=complex)
    currents[:, grid.nx // 2, grid.ny // 2] = 1.0
    return currents


OMEGA = wavelength_to_omega(1.55)


class TestCore:
    def test_courant_timestep_value_and_bounds(self):
        grid = _grid()
        from repro.constants import C_0

        dt = courant_timestep(grid.dl_m, courant=0.5)
        assert dt == pytest.approx(0.5 * grid.dl_m / (C_0 * np.sqrt(2.0)))
        with pytest.raises(ValueError, match="courant"):
            courant_timestep(grid.dl_m, courant=0.0)
        with pytest.raises(ValueError, match="courant"):
            courant_timestep(grid.dl_m, courant=1.5)

    def test_warped_frequency_inverts_leapfrog_dispersion(self):
        dt = courant_timestep(_grid().dl_m)
        warped = warped_frequency(OMEGA, dt)
        # The leapfrog maps a discrete phasor at w' onto (2/dt) sin(w' dt / 2);
        # the warp must invert that map exactly.
        assert (2.0 / dt) * np.sin(0.5 * warped * dt) == pytest.approx(OMEGA, rel=1e-12)
        assert warped > OMEGA  # pre-compensation always shifts up
        with pytest.raises(ValueError, match="not resolvable"):
            warped_frequency(2.0 / dt + 1.0, dt)

    def test_pulse_spectrum_is_exact_dtft(self):
        pulse = GaussianPulse(carrier=OMEGA, tau=8.0 / OMEGA)
        dt = 1e-17
        times = (np.arange(2000) + 0.5) * dt
        omegas = np.array([0.9 * OMEGA, OMEGA, 1.1 * OMEGA])
        expected = np.array(
            [dt * np.sum(pulse(times) * np.exp(-1j * w * times)) for w in omegas]
        )
        np.testing.assert_allclose(pulse.spectrum(omegas, times, dt), expected, rtol=1e-12)

    def test_design_pulse_constraints(self):
        omegas = OMEGA * np.array([0.99, 1.0, 1.01])
        pulse = design_pulse(omegas)
        assert pulse.carrier == pytest.approx(omegas.mean())
        # Default width: shortest without DC content.
        assert pulse.carrier * pulse.tau == pytest.approx(8.0)
        with pytest.raises(ValueError, match="DC content"):
            design_pulse(omegas, tau_s=1.0 / OMEGA)
        with pytest.raises(ValueError, match="cannot cover"):
            design_pulse(OMEGA * np.array([0.5, 1.0, 1.5]))

    def test_stepper_validation(self):
        grid = _grid(n=30, npml=6)
        eps = np.ones(grid.shape)
        with pytest.raises(ValueError, match="dtype"):
            FdtdStepper(grid, eps, dtype=np.int32)
        with pytest.raises(ValueError, match="matches neither"):
            FdtdStepper(grid, np.ones((5, 5)))
        with pytest.raises(ValueError, match="positive"):
            FdtdStepper(grid, 0.0 * eps)
        with pytest.raises(ValueError, match="real permittivity"):
            FdtdStepper(grid, eps + 1j * eps)
        stepper = FdtdStepper(grid, eps, dtype=np.float64)
        with pytest.raises(ValueError, match="complex current"):
            stepper.set_current(1j * _point_current(grid)[0][None])
        with pytest.raises(ValueError, match="does not match state"):
            stepper.set_current(np.zeros((2,) + grid.shape))

    def test_cpml_absorbs_ringdown(self):
        """A pulsed point source must decay instead of bouncing off the walls."""
        grid = _grid(n=40, npml=10)
        stepper = FdtdStepper(grid, np.ones(grid.shape), dtype=np.float64)
        stepper.set_current(_point_current(grid).real)
        pulse = design_pulse(np.array([warped_frequency(OMEGA, stepper.dt)]))
        n_source = int(np.ceil(pulse.duration / stepper.dt))
        peak = 0.0
        for step in range(n_source + 3000):
            t = (step + 0.5) * stepper.dt
            stepper.step(pulse(t).real if step < n_source else 0.0)
            peak = max(peak, stepper.peak()[0])
        assert stepper.peak()[0] < 1e-3 * peak

    def test_per_batch_permittivity_matches_separate_runs(self):
        """A stacked two-media run must reproduce two single-medium runs."""
        grid = _grid(n=36, npml=8)
        eps_a = np.ones(grid.shape)
        eps_b = np.full(grid.shape, 4.0)
        current = _point_current(grid)
        kwargs = dict(decay_tol=0.0, max_steps=1200, check_every=200)
        stacked = run_pulsed(
            grid,
            np.stack([eps_a, eps_b]),
            np.concatenate([current, current]),
            np.array([OMEGA]),
            **kwargs,
        )
        single_a = run_pulsed(grid, eps_a, current, np.array([OMEGA]), **kwargs)
        single_b = run_pulsed(grid, eps_b, current, np.array([OMEGA]), **kwargs)
        np.testing.assert_allclose(stacked[:, 0], single_a[:, 0], rtol=1e-12)
        np.testing.assert_allclose(stacked[:, 1], single_b[:, 0], rtol=1e-12)

    def test_single_precision_tracks_double(self):
        grid = _grid(n=36, npml=8)
        eps = np.full(grid.shape, 2.25)
        current = _point_current(grid)
        kwargs = dict(decay_tol=0.0, max_steps=1200, check_every=200)
        double = run_pulsed(grid, eps, current, np.array([OMEGA]), **kwargs)
        single = run_pulsed(
            grid, eps, current, np.array([OMEGA]), precision="single", **kwargs
        )
        scale = np.abs(double).max()
        assert np.abs(single - double).max() < 1e-4 * scale

    def test_run_pulsed_validation(self):
        grid = _grid(n=30, npml=6)
        with pytest.raises(ValueError, match="batch"):
            run_pulsed(grid, np.ones(grid.shape), np.zeros(grid.shape), [OMEGA])
        with pytest.raises(ValueError, match="precision"):
            run_pulsed(
                grid, np.ones(grid.shape), _point_current(grid), [OMEGA], precision="half"
            )

    def test_interior_fields_match_direct_fdfd(self):
        """The warped DFT extraction satisfies the FDFD system away from the PML."""
        grid = _grid(n=50, npml=10)
        eps = np.full(grid.shape, 2.25)
        rhs = 1j * OMEGA * _point_current(grid)
        ez_direct = make_engine("direct").solve_batch(grid, OMEGA, eps, rhs)[0]
        ez_fdtd = make_engine("fdtd", decay_tol=1e-4).solve_batch(grid, OMEGA, eps, rhs)[0]
        margin = grid.npml + 4
        interior = (slice(margin, -margin), slice(margin, -margin))
        scale = np.linalg.norm(ez_direct[interior])
        rel = np.linalg.norm(ez_fdtd[interior] - ez_direct[interior]) / scale
        assert rel < 0.02


class TestFdtdSimulation:
    @pytest.fixture(scope="class")
    def device(self):
        return make_device("bending", domain=3.0, design_size=1.4, dl=0.1)

    @pytest.fixture(scope="class")
    def eps_r(self, device):
        density = np.random.default_rng(3).uniform(0.2, 0.8, device.design_shape)
        return device.eps_with_design(density)

    def test_validation(self, device, eps_r):
        ports = device.geometry.ports
        with pytest.raises(ValueError, match="does not match grid"):
            FdtdSimulation(device.grid, np.ones((3, 3)), [1.55], ports)
        with pytest.raises(ValueError, match="at least one wavelength"):
            FdtdSimulation(device.grid, eps_r, [], ports)
        with pytest.raises(ValueError, match="at least one port"):
            FdtdSimulation(device.grid, eps_r, [1.55], [])
        sim = FdtdSimulation(device.grid, eps_r, [1.55], ports)
        with pytest.raises(KeyError, match="unknown port"):
            sim.solve(source_port="nope")

    def test_one_run_many_wavelengths_and_norm_cache(self, device, eps_r, monkeypatch):
        """First solve runs device+reference batched; repeats hit the cache."""
        # 1.574 does not survive a wavelength -> omega -> wavelength round
        # trip bit for bit: results must report the requested wavelength.
        wavelengths = [1.53, 1.55, 1.574]
        calls = []
        real_run = broadband.run_pulsed

        def counting_run(grid, eps, currents, omegas, **kwargs):
            calls.append(currents.shape[0])
            return real_run(grid, eps, currents, omegas, **kwargs)

        monkeypatch.setattr(broadband, "run_pulsed", counting_run)
        broadband._NORM_CACHE.clear()
        sim = FdtdSimulation(device.grid, eps_r, wavelengths, device.geometry.ports)
        results = sim.solve()
        # Cache miss: exactly one time integration, device and normalization
        # reference stacked as a batch of two.
        assert calls == [2]
        assert [r.wavelength for r in results] == wavelengths
        for result in results:
            assert result.ez.shape == device.grid.shape
            assert set(result.transmissions) == {"out"}
            assert np.isfinite(result.ez).all()
            assert result.input_flux > 0

        again = sim.solve()
        # Cache hit: one more run, device only.  The second integration stops
        # at its own decay check (the batch no longer contains the reference
        # geometry), so the fields agree to the ring-down tolerance, not
        # bitwise.
        assert calls == [2, 1]
        for a, b in zip(results, again):
            scale = np.abs(a.ez).max()
            np.testing.assert_allclose(b.ez, a.ez, atol=2e-3 * scale)
            assert b.transmissions["out"] == pytest.approx(
                a.transmissions["out"], abs=1e-3
            )

    def test_results_vary_across_band(self, device, eps_r):
        broadband._NORM_CACHE.clear()
        sim = FdtdSimulation(device.grid, eps_r, [1.50, 1.60], device.geometry.ports)
        lo, hi = sim.solve()
        assert lo.transmissions["out"] != pytest.approx(hi.transmissions["out"], abs=1e-4)

    @pytest.mark.parametrize("name", ["bending", "wdm"])
    def test_measurement_matches_fdfd_on_exact_fields(self, name, monkeypatch):
        """Fed exact frequency-domain fields, the broadband facade measures
        what :class:`Simulation` measures, to rounding: both tiers share one
        port measurement, so only the field solve may differ between them."""

        def exact_run(grid, eps, currents, omegas, **kwargs):
            eps = np.broadcast_to(eps, currents.shape)
            return np.array(
                [
                    [FdfdSolver(grid, omega).solve(e, j).ez for e, j in zip(eps, currents)]
                    for omega in omegas
                ]
            )

        monkeypatch.setattr(broadband, "run_pulsed", exact_run)
        monkeypatch.setattr(broadband, "_NORM_CACHE", BoundedCache(4))
        device = make_device(name, domain=3.0, design_size=1.4, dl=0.1)
        density = np.random.default_rng(5).uniform(0.2, 0.8, device.design_shape)
        eps_r = device.eps_with_design(density)
        wavelength = device.specs[0].wavelength
        ports = device.geometry.ports
        (fdtd,) = FdtdSimulation(device.grid, eps_r, [wavelength], ports).solve()
        fdfd = Simulation(device.grid, eps_r, wavelength, ports).solve()

        assert fdtd.wavelength == fdfd.wavelength
        for attr in ("fluxes", "s_params", "transmissions"):
            measured, reference = getattr(fdtd, attr), getattr(fdfd, attr)
            assert list(measured) == list(reference)
            for port, value in reference.items():
                assert measured[port] == pytest.approx(value, rel=1e-10, abs=0.0)
        assert fdtd.input_flux == pytest.approx(fdfd.input_flux, rel=1e-10, abs=0.0)
        assert fdtd.input_overlap == pytest.approx(fdfd.input_overlap, rel=1e-10, abs=0.0)


class TestEngineRegistration:
    def test_registry_and_signature(self):
        engine = make_engine("fdtd")
        assert isinstance(engine, FdtdFrequencyEngine)
        assert engine.supports_warm_start is False
        assert engine.fidelity_signature[0] == "fdtd"
        # Stepping parameters and precision are part of the cache identity.
        assert (
            make_engine("fdtd", decay_tol=1e-4).fidelity_signature
            != engine.fidelity_signature
        )
        assert (
            make_engine("fdtd", precision="single").fidelity_signature
            != engine.fidelity_signature
        )
        assert (
            make_engine("fdtd").fidelity_signature == engine.fidelity_signature
        )


class TestBroadbandPlumbing:
    @pytest.fixture(scope="class")
    def device(self):
        return make_device("bending", domain=3.0, design_size=1.4, dl=0.1)

    @pytest.fixture(scope="class")
    def density(self, device):
        return np.random.default_rng(5).uniform(0.2, 0.8, device.design_shape)

    WLS = [1.54, 1.55, 1.56]

    def test_gradient_request_is_rejected(self, device, density):
        with pytest.raises(ValueError, match="forward-only"):
            evaluate_specs(
                device, density, compute_gradient=True, sweep=Sweep(wavelengths=self.WLS)
            )
        with pytest.raises(ValueError, match="forward-only"):
            extract_labels_batch(
                device, density, with_gradient=True, sweep=Sweep(wavelengths=self.WLS)
            )

    def test_fallback_engine_loops_per_wavelength(self, device, density):
        """Non-fdtd engines evaluate each wavelength through the standard path."""
        from dataclasses import replace

        broad = evaluate_specs(
            device,
            density,
            backend=NumericalFieldBackend(engine="direct"),
            compute_gradient=False,
            sweep=Sweep(wavelengths=self.WLS),
        )
        assert len(broad) == len(self.WLS) * len(device.specs)
        for k, w in enumerate(self.WLS):
            for j, spec in enumerate(device.specs):
                evaluation = broad[k * len(device.specs) + j]
                assert evaluation.spec.wavelength == pytest.approx(w)
                manual = evaluate_specs(
                    device,
                    density,
                    specs=[replace(spec, wavelength=w)],
                    compute_gradient=False,
                )[0]
                assert evaluation.objective_value == pytest.approx(
                    manual.objective_value, rel=1e-12
                )

    def test_objective_overrides_apply_at_every_wavelength(self, device, density):
        """``objectives`` stay keyed by spec position under ``wavelengths``."""
        from dataclasses import replace

        # The same excitation twice: only the first copy gets the override.
        spec = device.specs[0]
        specs = [spec, spec]
        n = len(specs)
        flux = {0: objective_for_spec(spec, kind="flux")}
        broad = evaluate_specs(
            device,
            density,
            specs=specs,
            backend=NumericalFieldBackend(engine="direct"),
            objectives=flux,
            compute_gradient=False,
            sweep=Sweep(wavelengths=self.WLS),
        )
        for k, w in enumerate(self.WLS):
            manual = evaluate_specs(
                device,
                density,
                specs=[replace(s, wavelength=w) for s in specs],
                objectives=flux,
                compute_gradient=False,
            )
            for j in range(n):
                assert broad[k * n + j].objective_value == pytest.approx(
                    manual[j].objective_value, rel=1e-12
                )

        engine = make_engine("fdtd", courant=0.99, decay_tol=1e-3, precision="single")
        eps_r = device.eps_with_design(density)

        def hand_built():
            sim = FdtdSimulation(
                device.grid,
                eps_r,
                self.WLS,
                device.geometry.ports,
                courant=engine.courant,
                tau_s=engine.tau_s,
                decay_tol=engine.decay_tol,
                max_steps=engine.max_steps,
                check_every=engine.check_every,
                precision=engine.precision,
            )
            return sim.solve(
                source_port=spec.source_port,
                mode_index=spec.source_mode,
                monitor_ports=spec.monitored_ports(),
            )

        # Warm the normalization cache so both runs below integrate the
        # device alone and are bitwise comparable.
        hand_built()
        broad = evaluate_specs(
            device,
            density,
            specs=specs,
            backend=NumericalFieldBackend(engine=engine),
            objectives=flux,
            compute_gradient=False,
            sweep=Sweep(wavelengths=self.WLS),
        )
        for k, (w, result) in enumerate(zip(self.WLS, hand_built())):
            context = Simulation(device.grid, eps_r, w, device.geometry.ports)
            for j, objective in enumerate([flux[0], objective_for_spec(spec)]):
                expected, _ = objective.value_and_adjoint_source(context, result)
                assert broad[k * n + j].objective_value == pytest.approx(
                    expected, rel=1e-12
                )

    def test_fdtd_labels_are_wavelength_major(self, device, density):
        labels = extract_labels_batch(
            device,
            density,
            with_gradient=False,
            engine=make_engine("fdtd", courant=0.99, decay_tol=1e-3, precision="single"),
            sweep=Sweep(wavelengths=self.WLS),
        )
        assert [lab.wavelength for lab in labels] == pytest.approx(self.WLS)
        for lab in labels:
            assert lab.adjoint_gradient is None
            assert np.isfinite(lab.ez).all()
            assert set(lab.transmissions) == {"out"}
            assert np.isfinite(lab.maxwell_residual)

    def test_generator_broadband_config(self, tmp_path):
        from repro.data.generator import DatasetGenerator, GeneratorConfig

        with pytest.raises(ValueError, match="forward-only"):
            DatasetGenerator(
                GeneratorConfig(sweep=Sweep(wavelengths=(1.55,)), with_gradient=True)
            )

        config = GeneratorConfig(
            device_name="bending",
            device_kwargs=dict(domain=3.0, design_size=1.4, dl=0.1),
            strategy="random",
            num_designs=1,
            fidelities=("low",),
            with_gradient=False,
            engine="fdtd",
            sweep=Sweep(wavelengths=(1.54, 1.55, 1.56)),
            shard_dir=str(tmp_path),
        )
        dataset = DatasetGenerator(config).generate()
        assert len(dataset) == 3
        assert dataset.metadata["wavelengths"] == [1.54, 1.55, 1.56]
        assert [dataset[i].wavelength for i in range(3)] == pytest.approx(
            [1.54, 1.55, 1.56]
        )
        # Broadband shards resume like any other (fingerprint covers the band).
        resumed = DatasetGenerator(config).generate()
        assert all(
            np.array_equal(dataset[i].target, resumed[i].target) for i in range(3)
        )

    def test_wavelengths_key_changes_fingerprint_only_when_set(self):
        from repro.data.generator import GeneratorConfig
        from repro.data.shards import plan_shards, shard_fingerprint

        base = GeneratorConfig(num_designs=1, with_gradient=False)
        banded = GeneratorConfig(
            num_designs=1, with_gradient=False, sweep=Sweep(wavelengths=(1.53, 1.57))
        )
        density = [np.zeros((4, 4))]
        spec = plan_shards(base, num_designs=1)[0]
        fp_base = shard_fingerprint(base, spec, density, ["random"])
        fp_band = shard_fingerprint(banded, spec, density, ["random"])
        assert fp_base != fp_band
        # And unchanged for configs that never mention wavelengths (resume
        # compatibility for every pre-broadband artifact).
        assert fp_base == shard_fingerprint(base, spec, density, ["random"])
