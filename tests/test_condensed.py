"""Condensed exact solves: the design-region Schur complement path of ``DirectEngine``.

A ``DirectEngine`` given a device's design region factors the fixed exterior
once and each design's condensed operator on the region.  These tests pin
that the condensed factor solves the same systems as the full LU (every zoo
device, two grids, forward and adjoint right-hand sides, Kerr fixed points),
that operators outside its rule (exterior changed, store attached) are
factored in full, and that label extraction actually takes the path.
"""

import numpy as np
import pytest

from repro.constants import wavelength_to_omega
from repro.data.generator import DatasetGenerator, GeneratorConfig
from repro.data.labels import extract_labels_batch
from repro.devices.factory import available_devices, make_device
from repro.fabrication.drift import TemperatureDrift
from repro.fdfd.engine import (
    DirectEngine,
    FactorizationCache,
    assemble_system_matrix,
    default_factorization_cache,
    eps_fingerprint,
    factor_lu,
    selects_direct,
)
from repro.fdfd.nonlinear import KerrNonlinearity
from repro.fdfd.simulation import Simulation, normalization_geometry
from repro.service.cache_store import FileFactorizationStore

DEVICE_SIZE = dict(domain=3.0, design_size=1.4)
PARITY_CASES = [(name, dl) for name in available_devices() for dl in (0.1, 0.08)]


def _region_engine(device, cache=None) -> DirectEngine:
    geometry = device.geometry
    return DirectEngine(
        cache=cache if cache is not None else FactorizationCache(),
        design_region=geometry.design_slice,
        exterior_eps=geometry.eps_background,
    )


def _tags(cache) -> set[str]:
    return {key[3] for key in cache.keys()}


def _relative(got, want) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


@pytest.mark.parametrize(
    "name,dl", PARITY_CASES, ids=[f"{name}-dl{dl:.2f}" for name, dl in PARITY_CASES]
)
def test_condensed_factor_matches_full_lu(name, dl):
    device = make_device(name, dl=dl, **DEVICE_SIZE)
    grid = device.grid
    density = np.random.default_rng(11).uniform(0.0, 1.0, device.design_shape)
    eps = device.eps_with_design(density)
    engine = _region_engine(device)
    for spec in device.specs:
        omega = wavelength_to_omega(spec.wavelength)
        condensed = engine.factorize(grid, omega, eps)
        assert engine.cache.peek(grid, omega, eps_fingerprint(eps), tag="condensed") is condensed
        full = factor_lu(assemble_system_matrix(grid, omega, eps))

        sim = Simulation(grid, eps, spec.wavelength, device.geometry.ports)
        forward = 1j * omega * sim.mode_source(spec.source_port, spec.source_mode).ravel()
        field = full.solve(forward)
        # Adjoint sources live on the monitor planes, conj(E)-shaped.
        adjoint = np.zeros(grid.shape, dtype=complex)
        for port in device.geometry.ports:
            if port.name in spec.port_weights:
                index = port.indices(grid)
                adjoint[index] = np.conj(field.reshape(grid.shape)[index])
        adjoint = adjoint.ravel()

        assert _relative(condensed.solve(forward), field) <= 1e-10
        assert _relative(condensed.solve(adjoint), full.solve(adjoint)) <= 1e-10
        stack = np.stack([forward, adjoint], axis=1)
        assert _relative(condensed.solve(stack), full.solve(stack)) <= 1e-10


@pytest.mark.parametrize("name", ["kerr_switch", "kerr_limiter"])
def test_kerr_labels_through_condensed_inner_solves(name, monkeypatch):
    """Kerr fixed points converge to the same labels on either factor."""
    device = make_device(name, dl=0.1, **DEVICE_SIZE)
    density = np.random.default_rng(5).uniform(0.2, 0.8, device.design_shape)
    nonlinearity = KerrNonlinearity(rtol=1e-10)
    full = extract_labels_batch(
        device, density, engine=DirectEngine(cache=FactorizationCache()), nonlinearity=nonlinearity
    )
    # Engines built by name resolve the module-level default cache at
    # construction; a fresh one shows which path the labels took.
    cache = FactorizationCache()
    monkeypatch.setattr("repro.fdfd.engine.default_factorization_cache", cache)
    condensed = extract_labels_batch(device, density, engine="direct", nonlinearity=nonlinearity)
    assert "condensed" in _tags(cache)
    assert len(condensed) == len(full) == len(device.specs)
    for got, want in zip(condensed, full):
        assert _relative(got.ez, want.ez) < 1e-8
        scale = max(np.abs(want.adjoint_gradient).max(), 1e-30)
        np.testing.assert_allclose(got.adjoint_gradient, want.adjoint_gradient, atol=1e-6 * scale)
        for port, value in want.transmissions.items():
            assert got.transmissions[port] == pytest.approx(value, abs=1e-8)


class TestFallbacks:
    @staticmethod
    def _temperature_drift(device, eps):
        return TemperatureDrift(30.0).apply_eps(eps)

    @staticmethod
    def _normalization_guide(device, eps):
        port = next(p for p in device.geometry.ports if p.name == device.specs[0].source_port)
        guide, _ = normalization_geometry(device.grid, port, eps[port.indices(device.grid)])
        return guide

    @pytest.mark.parametrize("variant", ["_temperature_drift", "_normalization_guide"])
    def test_changed_exterior_is_factored_in_full(self, variant):
        device = make_device("bending", dl=0.1, **DEVICE_SIZE)
        engine = _region_engine(device)
        density = np.random.default_rng(2).uniform(0.0, 1.0, device.design_shape)
        eps = getattr(self, variant)(device, device.eps_with_design(density))
        omega = wavelength_to_omega(device.specs[0].wavelength)
        engine.factorize(device.grid, omega, eps)
        fingerprint = eps_fingerprint(eps)
        assert engine.cache.peek(device.grid, omega, fingerprint, tag="condensed") is None
        assert engine.cache.peek(device.grid, omega, fingerprint, tag="direct") is not None
        assert _tags(engine.cache) == {"direct"}

    def test_store_runs_publish_only_full_operators(self, tmp_path):
        store_dir = tmp_path / "store"
        config = GeneratorConfig(
            device_name="bending",
            strategy="random",
            num_designs=2,
            with_gradient=True,
            seed=4,
            device_kwargs=dict(dl=0.1, **DEVICE_SIZE),
            factorization_store=str(store_dir),
        )
        dataset = DatasetGenerator(config).generate()
        artifacts = sorted(path.name for path in store_dir.glob("*.fact"))
        assert artifacts and all(name.startswith("direct-") for name in artifacts)
        store = FileFactorizationStore(store_dir)
        device = make_device("bending", dl=0.1, **DEVICE_SIZE)
        for sample in dataset.samples:
            omega = wavelength_to_omega(sample.wavelength)
            entry = store.load(device.grid, omega, eps_fingerprint(sample.eps_r), "direct")
            assert entry is not None
            rhs = np.ones(device.grid.n_points, dtype=complex)
            matrix = assemble_system_matrix(device.grid, omega, sample.eps_r)
            assert np.linalg.norm(matrix @ entry.solve(rhs) - rhs) <= 1e-10 * np.linalg.norm(rhs)

    def test_engine_instances_and_other_tiers_are_used_as_given(self):
        assert selects_direct(None) and selects_direct("direct") and selects_direct("HIGH")
        assert selects_direct("superlu")
        assert not selects_direct("recycled")
        assert not selects_direct("iterative")
        assert not selects_direct(DirectEngine())

    def test_region_and_exterior_go_together(self):
        device = make_device("bending", dl=0.1, **DEVICE_SIZE)
        with pytest.raises(ValueError, match="together"):
            DirectEngine(design_region=device.geometry.design_slice)


def test_serial_generation_takes_the_condensed_path():
    """The datasets_bit_identical generation tests run through condensed factors."""
    default_factorization_cache.clear()
    config = GeneratorConfig(
        device_name="bending",
        strategy="random",
        num_designs=4,
        with_gradient=False,
        seed=3,
        device_kwargs=dict(dl=0.1, **DEVICE_SIZE),
        shard_size=2,
    )
    dataset = DatasetGenerator(config).generate()
    assert {"condensed", "exterior"} <= _tags(default_factorization_cache)
    last = dataset.samples[-1]
    device = make_device("bending", dl=0.1, **DEVICE_SIZE)
    omega = wavelength_to_omega(last.wavelength)
    fingerprint = eps_fingerprint(last.eps_r)
    assert default_factorization_cache.peek(device.grid, omega, fingerprint, tag="condensed")
    assert default_factorization_cache.peek(device.grid, omega, fingerprint, tag="direct") is None


def test_cache_size_env_var_is_named_in_the_error(monkeypatch):
    for raw in ("0", "-3", "eight"):
        monkeypatch.setenv("REPRO_FACTORIZATION_CACHE_SIZE", raw)
        with pytest.raises(ValueError, match=f"REPRO_FACTORIZATION_CACHE_SIZE={raw!r}"):
            FactorizationCache()
