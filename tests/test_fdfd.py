"""Tests for the FDFD substrate: grid, PML, operators, modes, solver, monitors."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import constants
from repro.fdfd import Grid, Port, Simulation, solve_slab_modes
from repro.fdfd.derivatives import derivative_operators
from repro.fdfd.modes import overlap_coefficient
from repro.fdfd.monitors import mode_overlap, poynting_flux_through_port
from repro.fdfd.engine import CountingEngine, DirectEngine, FactorizationCache
from repro.fdfd.pml import create_sfactor
from repro.fdfd.solver import FdfdSolver

OMEGA = constants.wavelength_to_omega(1.55)


# --------------------------------------------------------------------------- #
# Grid
# --------------------------------------------------------------------------- #
class TestGrid:
    def test_basic_properties(self):
        grid = Grid(nx=40, ny=30, dl=0.1, npml=8)
        assert grid.shape == (40, 30)
        assert grid.n_points == 1200
        assert grid.size_x == pytest.approx(4.0)
        assert grid.dl_m == pytest.approx(1e-7)

    @pytest.mark.parametrize("kwargs", [
        dict(nx=0, ny=10, dl=0.1),
        dict(nx=10, ny=10, dl=-0.1),
        dict(nx=10, ny=10, dl=0.1, npml=-1),
        dict(nx=10, ny=10, dl=0.1, npml=5),
    ])
    def test_invalid_construction(self, kwargs):
        with pytest.raises(ValueError):
            Grid(**kwargs)

    def test_coordinates_are_cell_centres(self):
        grid = Grid(nx=4, ny=4, dl=0.5, npml=1)
        np.testing.assert_allclose(grid.x_coords(), [0.25, 0.75, 1.25, 1.75])

    def test_index_of_clips_to_domain(self):
        grid = Grid(nx=10, ny=10, dl=0.1, npml=2)
        assert grid.index_of(-1.0, 0.55) == (0, 5)
        assert grid.index_of(100.0, 100.0) == (9, 9)

    def test_slices(self):
        grid = Grid(nx=20, ny=20, dl=0.1, npml=2)
        assert grid.slice_x(0.5, 1.0) == slice(5, 10)
        assert grid.slice_y(1.0, 0.5) == slice(5, 10)

    def test_interior_mask_excludes_pml(self):
        grid = Grid(nx=20, ny=20, dl=0.1, npml=5)
        mask = grid.interior_mask()
        assert mask.sum() == 10 * 10
        assert not mask[0, 0] and mask[10, 10]

    def test_with_resolution_preserves_physical_size(self):
        grid = Grid(nx=40, ny=20, dl=0.1, npml=5)
        coarse = grid.with_resolution(0.2)
        assert coarse.nx == 20 and coarse.ny == 11
        assert coarse.size_x == pytest.approx(grid.size_x, rel=0.1)

    @given(st.integers(20, 60), st.integers(20, 60))
    @settings(max_examples=20, deadline=None)
    def test_interior_mask_size_property(self, nx, ny):
        grid = Grid(nx=nx, ny=ny, dl=0.05, npml=8)
        assert grid.interior_mask().sum() == (nx - 16) * (ny - 16)


# --------------------------------------------------------------------------- #
# PML
# --------------------------------------------------------------------------- #
class TestPml:
    def test_interior_is_unity(self):
        s = create_sfactor(OMEGA, 5e-8, 50, 10, shifted=False)
        np.testing.assert_allclose(s[10:40], 1.0)

    def test_pml_has_negative_imaginary_part(self):
        s = create_sfactor(OMEGA, 5e-8, 50, 10, shifted=True)
        assert (s[:9].imag < 0).all()
        assert (s[-9:].imag < 0).all()

    def test_absorption_grows_towards_boundary(self):
        s = create_sfactor(OMEGA, 5e-8, 50, 10, shifted=False)
        assert abs(s[0].imag) > abs(s[5].imag) > abs(s[9].imag)

    def test_no_pml_is_all_ones(self):
        np.testing.assert_allclose(create_sfactor(OMEGA, 5e-8, 30, 0, shifted=True), 1.0)

    def test_oversized_pml_rejected(self):
        with pytest.raises(ValueError):
            create_sfactor(OMEGA, 5e-8, 20, 10, shifted=True)


# --------------------------------------------------------------------------- #
# derivative operators
# --------------------------------------------------------------------------- #
class TestDerivatives:
    def test_shapes(self):
        grid = Grid(nx=20, ny=25, dl=0.1, npml=5)
        ops = derivative_operators(grid, OMEGA)
        for name in ("Dxf", "Dxb", "Dyf", "Dyb"):
            assert ops[name].shape == (grid.n_points, grid.n_points)

    def test_derivative_of_linear_field(self):
        """Away from boundaries the forward difference of x (in metres) is 1."""
        grid = Grid(nx=30, ny=30, dl=0.1, npml=8)
        ops = derivative_operators(grid, OMEGA)
        x_field = np.broadcast_to(grid.x_coords()[:, None] * 1e-6, grid.shape)
        derivative = (ops["Dxf"] @ x_field.ravel()).reshape(grid.shape)
        interior = derivative[10:-10, 10:-10]
        np.testing.assert_allclose(interior.real, 1.0, rtol=1e-9)

    def test_constant_field_has_zero_interior_derivative(self):
        grid = Grid(nx=24, ny=24, dl=0.1, npml=6)
        ops = derivative_operators(grid, OMEGA)
        const = np.ones(grid.n_points)
        for name in ("Dxf", "Dyf"):
            derivative = (ops[name] @ const).reshape(grid.shape)
            np.testing.assert_allclose(derivative[8:-8, 8:-8], 0.0, atol=1e-9)


# --------------------------------------------------------------------------- #
# mode solver
# --------------------------------------------------------------------------- #
class TestModes:
    @staticmethod
    def _slab_eps(width_um=0.48, dl=0.05, span=3.0):
        n = int(span / dl)
        y = (np.arange(n) + 0.5) * dl
        eps = np.full(n, constants.EPS_SIO2)
        eps[np.abs(y - span / 2) <= width_um / 2] = constants.EPS_SI
        return eps

    def test_fundamental_mode_exists(self):
        modes = solve_slab_modes(self._slab_eps(), 0.05, OMEGA, num_modes=2)
        assert len(modes) >= 1
        assert constants.N_SIO2 < modes[0].neff < constants.N_SI

    def test_modes_sorted_by_neff(self):
        modes = solve_slab_modes(self._slab_eps(width_um=1.0), 0.05, OMEGA, num_modes=3)
        assert len(modes) >= 2
        assert modes[0].neff > modes[1].neff

    def test_mode_profile_normalized(self):
        mode = solve_slab_modes(self._slab_eps(), 0.05, OMEGA)[0]
        assert np.sum(np.abs(mode.profile) ** 2) * mode.dl == pytest.approx(1.0)

    def test_fundamental_mode_has_single_lobe(self):
        mode = solve_slab_modes(self._slab_eps(), 0.05, OMEGA)[0]
        sign_changes = np.sum(np.abs(np.diff(np.sign(mode.profile[np.abs(mode.profile) > 1e-3]))) > 0)
        assert sign_changes == 0

    def test_wider_waveguide_guides_more_modes(self):
        narrow = solve_slab_modes(self._slab_eps(width_um=0.3), 0.05, OMEGA, num_modes=4)
        wide = solve_slab_modes(self._slab_eps(width_um=1.2), 0.05, OMEGA, num_modes=4)
        assert len(wide) > len(narrow)

    def test_uniform_cladding_guides_nothing(self):
        eps = np.full(60, constants.EPS_SIO2)
        assert solve_slab_modes(eps, 0.05, OMEGA) == []

    def test_overlap_coefficient_self(self):
        mode = solve_slab_modes(self._slab_eps(), 0.05, OMEGA)[0]
        overlap = overlap_coefficient(mode.profile, mode)
        assert abs(overlap) == pytest.approx(1.0 * mode.dl * np.sum(mode.profile**2), rel=1e-9)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            solve_slab_modes(np.ones((3, 3)), 0.05, OMEGA)
        with pytest.raises(ValueError):
            solve_slab_modes(np.ones(2), 0.05, OMEGA)

    def test_modes_orthonormal(self):
        """Regression: unit L2 norm per mode, orthogonality between modes."""
        modes = solve_slab_modes(self._slab_eps(width_um=1.2), 0.05, OMEGA, num_modes=3)
        assert len(modes) >= 2
        for i, mode_i in enumerate(modes):
            for j, mode_j in enumerate(modes):
                inner = np.sum(mode_i.profile * mode_j.profile) * mode_i.dl
                assert inner == pytest.approx(1.0 if i == j else 0.0, abs=1e-9)

    def test_mode_ordering_regression(self):
        """Modes come back fundamental-first with contiguous order tags."""
        modes = solve_slab_modes(self._slab_eps(width_um=1.2), 0.05, OMEGA, num_modes=4)
        assert len(modes) >= 2
        neffs = [mode.neff for mode in modes]
        assert neffs == sorted(neffs, reverse=True)
        assert [mode.order for mode in modes] == list(range(len(modes)))
        for mode in modes:
            assert constants.N_SIO2 < mode.neff < constants.N_SI

    def test_overlap_coefficient_reciprocity(self):
        """<phi_a, phi_b> == <phi_b, phi_a>: the overlap is symmetric."""
        modes = solve_slab_modes(self._slab_eps(width_um=1.2), 0.05, OMEGA, num_modes=2)
        assert len(modes) == 2
        forward = overlap_coefficient(modes[0].profile, modes[1])
        backward = overlap_coefficient(modes[1].profile, modes[0])
        assert forward == pytest.approx(backward, abs=1e-12)
        # Complex field lines keep the same symmetry (no conjugation).
        field = (modes[0].profile + 0.3j * modes[1].profile).astype(complex)
        direct = overlap_coefficient(field, modes[1])
        manual = complex(np.sum(field * modes[1].profile) * modes[1].dl)
        assert direct == pytest.approx(manual, rel=1e-12)

    def test_batched_matches_single(self):
        from repro.fdfd.modes import solve_slab_modes_batch

        lines = [
            self._slab_eps(width_um=0.48),
            self._slab_eps(width_um=1.2),
            self._slab_eps(width_um=0.8, span=2.0),  # different length
            np.full(60, constants.EPS_SIO2),  # guides nothing
        ]
        batched = solve_slab_modes_batch(lines, 0.05, OMEGA, num_modes=3)
        assert len(batched) == len(lines)
        assert batched[3] == []
        for line, modes in zip(lines, batched):
            singles = solve_slab_modes(line, 0.05, OMEGA, num_modes=3)
            assert len(modes) == len(singles)
            for got, want in zip(modes, singles):
                assert got.neff == pytest.approx(want.neff, rel=1e-12)
                np.testing.assert_allclose(got.profile, want.profile, atol=1e-10)

    def test_batched_invalid_line_rejected(self):
        from repro.fdfd.modes import solve_slab_modes_batch

        with pytest.raises(ValueError):
            solve_slab_modes_batch([self._slab_eps(), np.ones(2)], 0.05, OMEGA)

    def test_simulation_batches_port_mode_solves(self, monkeypatch):
        """One batched eigendecomposition pass per permittivity, not per call."""
        import repro.fdfd.modes as modes_module
        from repro.fdfd import Grid, Port, Simulation
        from repro.utils.cache import BoundedCache

        grid = Grid(nx=40, ny=40, dl=0.1, npml=8)
        eps = np.full(grid.shape, constants.EPS_SIO2)
        y = grid.y_coords()
        eps[:, np.abs(y - grid.size_y / 2) <= 0.24] = constants.EPS_SI
        margin = 11 * 0.1
        ports = [
            Port("in", "x", position=margin, center=grid.size_y / 2, span=1.44),
            Port("out", "x", position=grid.size_x - margin, center=grid.size_y / 2, span=1.44),
        ]
        sim = Simulation(grid, eps, 1.55, ports)

        calls = []
        original = np.linalg.eigh

        def counting(stack, *args, **kwargs):
            calls.append(len(stack))
            return original(stack, *args, **kwargs)

        # An empty mode cache, so lines other tests solved still count.
        monkeypatch.setattr(modes_module, "_MODE_CACHE", BoundedCache(512))
        monkeypatch.setattr(modes_module.np.linalg, "eigh", counting)
        sim.solve("in")
        assert calls == [2]  # source + monitor lines in one batch
        sim.solve("in")
        assert calls == [2]  # cached: no further eigendecompositions
        sim.eps_r[:, grid.ny // 2] += 0.1  # in-place mutation of both port lines
        sim.solve("in")
        assert calls == [2, 2]


# --------------------------------------------------------------------------- #
# solver + simulation physics
# --------------------------------------------------------------------------- #
def _straight_waveguide(dl=0.1, domain=4.0, width=0.48):
    npml = 8
    n = int(domain / dl) + 2 * npml
    grid = Grid(nx=n, ny=n, dl=dl, npml=npml)
    eps = np.full(grid.shape, constants.EPS_SIO2)
    y = grid.y_coords()
    eps[:, np.abs(y - grid.size_y / 2) <= width / 2] = constants.EPS_SI
    margin = (npml + 3) * dl
    ports = [
        Port("in", "x", position=margin, center=grid.size_y / 2, span=3 * width, direction=+1),
        Port("out", "x", position=grid.size_x - margin, center=grid.size_y / 2, span=3 * width, direction=+1),
    ]
    return grid, eps, ports


class TestSolver:
    def test_solution_satisfies_maxwell(self):
        grid, eps, ports = _straight_waveguide()
        solver = FdfdSolver(grid, OMEGA)
        source = np.zeros(grid.shape, dtype=complex)
        source[grid.nx // 2, grid.ny // 2] = 1.0
        solution = solver.solve(eps, source)
        residual = solver.residual(eps, solution.ez, source)
        rhs_norm = np.linalg.norm(1j * OMEGA * source)
        assert np.linalg.norm(residual) / rhs_norm < 1e-10

    def test_factorization_cache_reused(self):
        grid, eps, ports = _straight_waveguide()
        engine = DirectEngine(cache=FactorizationCache())
        solver = FdfdSolver(grid, OMEGA, engine=engine)
        source = np.zeros(grid.shape, dtype=complex)
        source[grid.nx // 2, grid.ny // 2] = 1.0
        solver.solve(eps, source)
        assert engine.cache.stats.misses == 1
        solver.solve(eps, 2 * source)
        assert engine.cache.stats.misses == 1
        assert engine.cache.stats.hits == 1
        solver.clear_cache()
        assert len(engine.cache) == 0

    def test_linearity_in_source(self):
        grid, eps, ports = _straight_waveguide()
        solver = FdfdSolver(grid, OMEGA)
        source = np.zeros(grid.shape, dtype=complex)
        source[grid.nx // 2, grid.ny // 2] = 1.0
        ez1 = solver.solve(eps, source).ez
        ez2 = solver.solve(eps, 3.0 * source).ez
        np.testing.assert_allclose(ez2, 3.0 * ez1, rtol=1e-9)

    def test_shape_validation(self):
        grid, eps, ports = _straight_waveguide()
        solver = FdfdSolver(grid, OMEGA)
        with pytest.raises(ValueError):
            solver.solve(eps[:-1], np.zeros(grid.shape))
        with pytest.raises(ValueError):
            solver.solve(eps, np.zeros((3, 3)))

    def test_invalid_omega(self):
        grid, _, _ = _straight_waveguide()
        with pytest.raises(ValueError):
            FdfdSolver(grid, -1.0)


class TestSimulation:
    @pytest.fixture(scope="class")
    def straight_result(self):
        grid, eps, ports = _straight_waveguide()
        sim = Simulation(grid, eps, 1.55, ports)
        return sim, sim.solve("in")

    def test_straight_waveguide_transmission_near_unity(self, straight_result):
        _, result = straight_result
        assert result.transmissions["out"] == pytest.approx(1.0, abs=0.05)

    def test_maxwell_residual_small(self, straight_result):
        sim, result = straight_result
        assert sim.maxwell_residual(result) < 1e-10

    def test_field_decays_in_pml(self, straight_result):
        sim, result = straight_result
        interior_peak = np.abs(result.ez[sim.grid.interior_mask()]).max()
        corner = np.abs(result.ez[:3, :3]).max()
        assert corner < 1e-3 * interior_peak

    def test_radiation_is_small_for_straight_guide(self, straight_result):
        _, result = straight_result
        assert result.radiation < 0.1

    def test_total_transmission_selected_ports(self, straight_result):
        _, result = straight_result
        assert result.total_transmission(["out"]) == pytest.approx(
            result.transmissions["out"]
        )

    def test_unknown_port_raises(self, straight_result):
        sim, _ = straight_result
        with pytest.raises(KeyError):
            sim.solve("nonexistent")

    def test_duplicate_port_names_rejected(self):
        grid, eps, ports = _straight_waveguide()
        with pytest.raises(ValueError):
            Simulation(grid, eps, 1.55, [ports[0], ports[0]])

    def test_eps_shape_mismatch_rejected(self):
        grid, eps, ports = _straight_waveguide()
        with pytest.raises(ValueError):
            Simulation(grid, eps[:-1], 1.55, ports)

    def test_set_permittivity_invalidates_cache(self):
        grid, eps, ports = _straight_waveguide()
        sim = Simulation(grid, eps, 1.55, ports, engine=DirectEngine(cache=FactorizationCache()))
        sim.solve("in")
        old_fingerprint = sim._eps_fingerprint
        assert sim.engine.cache.peek(grid, sim.omega, old_fingerprint) is not None
        new_eps = eps.copy()
        new_eps[grid.nx // 2, grid.ny // 2] = 1.0
        sim.set_permittivity(new_eps)
        assert sim._eps_fingerprint != old_fingerprint
        assert sim.engine.cache.peek(grid, sim.omega, old_fingerprint) is None

    def test_set_permittivity_invalidates_normalization_cache(self):
        """Regression: normalization flux/overlap must not survive a design change."""
        grid, eps, ports = _straight_waveguide()
        sim = Simulation(grid, eps, 1.55, ports)
        stale = sim.solve("in")
        # Widen the feeding waveguide: the port cross-section (and therefore the
        # normalization run) changes, so the cached values would be wrong.
        wider = np.full(grid.shape, constants.EPS_SIO2)
        y = grid.y_coords()
        wider[:, np.abs(y - grid.size_y / 2) <= 0.6] = constants.EPS_SI
        sim.set_permittivity(wider)
        result = sim.solve("in")
        # A counting engine carries its own fidelity token, so the fresh
        # simulation computes its normalization instead of sharing sim's.
        expected = Simulation(grid, wider, 1.55, ports, engine=CountingEngine()).solve("in")
        assert result.input_flux == expected.input_flux
        assert result.input_overlap == expected.input_overlap
        stale_flux = stale.input_flux
        assert abs(result.input_flux - stale_flux) / stale_flux > 1e-6
        assert result.input_overlap != stale.input_overlap

    def test_mode_source_is_on_port_line_only(self, straight_result):
        sim, _ = straight_result
        source = sim.mode_source("in")
        mask = np.zeros(sim.grid.shape, dtype=bool)
        mask[sim.ports["in"].indices(sim.grid)] = True
        assert np.abs(source[~mask]).max() == 0.0
        assert np.abs(source[mask]).max() > 0.0

    def test_requesting_unguided_mode_raises(self, straight_result):
        sim, _ = straight_result
        with pytest.raises(ValueError):
            sim.mode_source("in", mode_index=5)


class TestMonitors:
    def test_port_validation(self):
        with pytest.raises(ValueError):
            Port("p", "z", 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            Port("p", "x", 1.0, 1.0, -1.0)
        with pytest.raises(ValueError):
            Port("p", "x", 1.0, 1.0, 1.0, direction=2)

    def test_flux_sign_flips_with_direction(self):
        grid, eps, ports = _straight_waveguide()
        sim = Simulation(grid, eps, 1.55, ports)
        result = sim.solve("in")
        forward = poynting_flux_through_port(result.ez, result.hx, result.hy, ports[1], grid)
        reversed_port = Port("out_r", "x", ports[1].position, ports[1].center, ports[1].span, direction=-1)
        backward = poynting_flux_through_port(result.ez, result.hx, result.hy, reversed_port, grid)
        assert forward == pytest.approx(-backward)
        assert forward > 0

    def test_mode_overlap_peaks_on_waveguide(self):
        grid, eps, ports = _straight_waveguide()
        sim = Simulation(grid, eps, 1.55, ports)
        result = sim.solve("in")
        out_port = ports[1]
        mode = out_port.solve_modes(eps, grid, sim.omega)[0]
        on_guide = abs(mode_overlap(result.ez, out_port, mode, grid))
        shifted_port = Port("shift", "x", out_port.position, out_port.center + 1.0, out_port.span, +1)
        shifted_modes = shifted_port.solve_modes(eps, grid, sim.omega)
        if shifted_modes:
            off_guide = abs(mode_overlap(result.ez, shifted_port, shifted_modes[0], grid))
            assert on_guide > off_guide

    def test_scatter_line_shape_check(self):
        grid, eps, ports = _straight_waveguide()
        with pytest.raises(ValueError):
            ports[0].scatter_line(np.ones(3), grid)


class TestIndexRoundingRule:
    """Regression tests for the unified coordinate -> index rounding rule.

    ``Port.indices`` used to resolve the plane position with Python's
    banker's ``round()`` while ``Grid.index_of`` floors and the slice helpers
    used ``np.round`` — a port at an exact half-cell position could inject its
    source on one row and measure flux on another, with the winner depending
    on index parity.
    """

    def test_cell_index_owns_half_open_interval(self):
        from repro.fdfd.grid import cell_index

        assert cell_index(0.0, 0.1) == 0
        # A coordinate exactly on a boundary belongs to the cell above it.
        assert cell_index(0.2, 0.1) == 2
        # Floating-point noise in position / dl must not flip the index.
        assert cell_index(0.3, 0.1) == 3  # 0.3 / 0.1 == 2.999... in binary fp
        assert cell_index(0.25, 0.1) == 2  # interior point

    def test_slice_bound_half_up(self):
        from repro.fdfd.grid import slice_bound

        # Round-half-up, independent of parity (banker's would give 12 / 14).
        assert slice_bound(1.25, 0.1) == 13
        assert slice_bound(1.35, 0.1) == 14
        assert slice_bound(1.2, 0.1) == 12

    @pytest.mark.parametrize("k", [12, 13])  # both parities of the owning cell
    @pytest.mark.parametrize("normal_axis", ["x", "y"])
    def test_port_at_half_cell_position_matches_grid_rule(self, k, normal_axis):
        """A port plane at a cell centre resolves to that cell on either axis.

        With banker's rounding, ``position / dl == 13.5`` resolved to row 14
        while ``Grid.index_of`` placed the same coordinate in cell 13.
        """
        grid = Grid(nx=40, ny=40, dl=0.1, npml=8)
        position = (k + 0.5) * grid.dl
        port = Port("p", normal_axis, position, center=grid.size_y / 2, span=1.0)
        index = port.indices(grid)
        plane_index = index[0] if normal_axis == "x" else index[1]
        owning = grid.index_of(position, position)
        assert plane_index == k
        assert plane_index == (owning[0] if normal_axis == "x" else owning[1])

    def test_source_and_monitor_share_a_row_at_half_cell(self):
        """End to end: a half-cell port's scattered source lies exactly on the
        row its flux monitor reads Ez from."""
        grid, eps, ports = _straight_waveguide()
        port = Port("p", "x", position=(13 + 0.5) * grid.dl, center=grid.size_y / 2, span=1.44)
        source = port.scatter_line(np.ones(port.extract_line(eps, grid).shape), grid)
        rows_with_source = np.flatnonzero(np.abs(source).sum(axis=1))
        assert rows_with_source.tolist() == [port.indices(grid)[0]]


class TestFluxColocation:
    """Regression tests for Yee-staggering colocation in the flux monitor.

    ``e_to_h`` produces H half a cell below the Ez samples; the monitor used
    to multiply Ez with the raw staggered H sample, an O(dl) bias whenever the
    field carries more than one wavevector along the port normal.  With the
    two straddling H samples averaged onto the Ez line the error is O(dl^2).
    """

    K1 = 9.73  # ~ effective index 2.4 at 1.55 um, rad / um
    K2 = 6.08  # ~ cladding index 1.5

    def _two_wave_error(self, dl: float, normal_axis: str) -> float:
        """Relative flux error against the analytically colocated product for a
        synthetic two-wavevector field sampled at the Yee positions."""
        npml = 8
        n = int(round(4.0 / dl)) + 2 * npml
        grid = Grid(nx=n, ny=n, dl=dl, npml=npml)
        centres = (np.arange(n) + 0.5) * dl  # Ez sample positions
        staggered = np.arange(n) * dl  # H sample positions (half a cell below)
        window = np.exp(-(((np.arange(n) + 0.5) * dl - grid.size_x / 2) / 0.6) ** 2)

        def e_profile(s):
            return np.exp(1j * self.K1 * s) + np.exp(1j * self.K2 * s)

        def h_profile(s):
            return self.K1 * np.exp(1j * self.K1 * s) + self.K2 * np.exp(1j * self.K2 * s)

        port = Port("m", normal_axis, grid.size_x / 2, center=grid.size_y / 2, span=2.4)
        index = port.indices(grid)
        if normal_axis == "x":
            ez = e_profile(centres)[:, None] * window[None, :]
            hy = h_profile(staggered)[:, None] * window[None, :]
            hx = np.zeros_like(ez)
            h_true_line = (h_profile(centres[index[0]]) * window)[index[1]]
            truth = -0.5 * np.real(np.sum(ez[index] * np.conj(h_true_line))) * grid.dl_m
        else:
            ez = e_profile(centres)[None, :] * window[:, None]
            hx = h_profile(staggered)[None, :] * window[:, None]
            hy = np.zeros_like(ez)
            h_true_line = (h_profile(centres[index[1]]) * window)[index[0]]
            truth = 0.5 * np.real(np.sum(ez[index] * np.conj(h_true_line))) * grid.dl_m
        measured = poynting_flux_through_port(ez, hx, hy, port, grid)
        return abs(measured - truth) / abs(truth)

    @pytest.mark.parametrize("normal_axis", ["x", "y"])
    def test_flux_error_is_second_order(self, normal_axis):
        errors = [self._two_wave_error(dl, normal_axis) for dl in (0.05, 0.025, 0.0125)]
        # Raw staggered sampling errs by ~28% / 5% / 2% here (first order);
        # the colocated monitor must be both accurate and better than first
        # order between successive halvings.
        assert errors[-1] < 3e-3
        assert errors[1] < errors[0] / 3.0
        assert errors[2] < errors[1] / 3.0

    def test_flux_agrees_with_overlap_across_resolutions(self):
        """Straight-waveguide parity: flux-based and overlap-based transmission
        agree and converge as dl -> 0 (PML thickness held in physical units)."""
        gaps = []
        for dl in (0.1, 0.05, 0.025):
            npml = int(round(0.8 / dl))
            n = int(4.0 / dl) + 2 * npml
            grid = Grid(nx=n, ny=n, dl=dl, npml=npml)
            eps = np.full(grid.shape, constants.EPS_SIO2)
            y = grid.y_coords()
            eps[:, np.abs(y - grid.size_y / 2) <= 0.24] = constants.EPS_SI
            margin = (npml + 3) * dl
            ports = [
                Port("in", "x", margin, grid.size_y / 2, 1.44, +1),
                Port("out", "x", grid.size_x - margin, grid.size_y / 2, 1.44, +1),
            ]
            result = Simulation(grid, eps, 1.55, ports).solve("in")
            t_flux = result.transmissions["out"]
            t_overlap = abs(result.s_params["out"]) ** 2
            assert t_flux == pytest.approx(1.0, abs=5e-3)
            gaps.append(abs(t_flux - t_overlap))
        assert gaps[1] < gaps[0] and gaps[2] < gaps[1]
        assert gaps[-1] < 2.5e-2
