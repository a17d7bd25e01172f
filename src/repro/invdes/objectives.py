"""Optimization objectives with analytic adjoint sources.

Every objective computes, from a forward :class:`SimulationResult`, a real
figure-of-merit contribution and its derivative with respect to the complex
field ``Ez`` (the adjoint source).  The derivative convention is
``dF = 2 Re( sum_i (dF/dEz_i) dEz_i )``, which is what the adjoint solver in
:mod:`repro.fdfd.solver` expects.
"""

from __future__ import annotations

import functools

import numpy as np

from repro.constants import MU_0
from repro.fdfd.engine import operators
from repro.fdfd.grid import Grid
from repro.fdfd.lazy import known
from repro.fdfd.monitors import (
    Port,
    mode_overlap,
    port_h_indices,
    poynting_flux_through_port,
)
from repro.fdfd.simulation import Simulation, SimulationResult


class Objective:
    """Base class: a differentiable functional of the forward field."""

    def value_and_adjoint_source(
        self, sim: Simulation, result: SimulationResult
    ) -> tuple[float, np.ndarray]:
        """Return the objective value and ``dF/dEz`` on the full grid."""
        raise NotImplementedError


class ModeTransmissionObjective(Objective):
    """Power transmission into one guided mode of a port.

    ``T = |c|^2 / |c_norm|^2`` where ``c`` is the modal overlap at the port
    and ``c_norm`` the overlap measured in the source normalization run.  The
    adjoint source is ``dT/dEz_i = (conj(c) / |c_norm|^2) * phi_i * dl`` on the
    port line.
    """

    def __init__(self, port_name: str, mode_index: int = 0, weight: float = 1.0):
        self.port_name = port_name
        self.mode_index = mode_index
        self.weight = float(weight)

    def value_and_adjoint_source(
        self, sim: Simulation, result: SimulationResult
    ) -> tuple[float, np.ndarray]:
        port: Port = sim.ports[self.port_name]
        modes = port.solve_modes(
            sim.eps_r, sim.grid, sim.omega, num_modes=self.mode_index + 1
        )
        adjoint = np.zeros(sim.grid.shape, dtype=complex)
        if len(modes) <= self.mode_index:
            # The port does not guide the requested mode: zero transmission and
            # no adjoint drive from this term.
            return 0.0, adjoint
        mode = modes[self.mode_index]
        overlap = mode_overlap(known(result, "ez"), port, mode, sim.grid)
        norm = abs(result.input_overlap) ** 2
        if norm <= 0:
            return 0.0, adjoint
        value = float(abs(overlap) ** 2 / norm)
        line = (np.conj(overlap) / norm) * mode.profile * mode.dl
        adjoint[port.indices(sim.grid)] = line
        return self.weight * value, self.weight * adjoint


class FluxTransmissionObjective(Objective):
    """Power transmission measured as Poynting flux through a port.

    ``T = P_port / P_in`` with ``P_port = -0.5 d Re(sum Ez conj(A Hy))``
    (x-normal ports) or ``+0.5 d Re(sum Ez conj(A Hx))`` (y-normal ports),
    where ``A`` averages the two Yee-staggered H rows straddling the port onto
    the Ez line (see :func:`repro.fdfd.monitors.port_h_indices`).  Because the
    magnetic field is a linear operator applied to ``Ez``, the derivative is::

        dT/dEz = -(0.25 d / P_in) (S^T conj(A M Ez) + M^T A^T S^T conj(S Ez))

    where ``S`` selects the port line and ``M`` is the corresponding discrete
    curl row block; the adjoint averaging ``A^T`` deposits half the line
    selector on each of the two straddling H rows.
    """

    def __init__(self, port_name: str, weight: float = 1.0):
        self.port_name = port_name
        self.weight = float(weight)

    def value_and_adjoint_source(
        self, sim: Simulation, result: SimulationResult
    ) -> tuple[float, np.ndarray]:
        port: Port = sim.ports[self.port_name]
        grid = sim.grid
        ez, hx, hy = (known(result, name) for name in ("ez", "hx", "hy"))
        flux = poynting_flux_through_port(ez, hx, hy, port, grid)
        p_in = result.input_flux
        if p_in <= 0:
            return 0.0, np.zeros(grid.shape, dtype=complex)
        value = float(flux / p_in)

        # Build dF/dEz analytically, on the port rows only.
        line, curl, h_factor, sign = _h_line_curl(port, grid, sim.omega)
        ez_flat = ez.ravel()
        h_lines = h_factor * (curl @ ez_flat)
        h_bar = 0.5 * (h_lines[: line.size] + h_lines[line.size :])
        scale = sign * port.direction * 0.25 * grid.dl_m / p_in
        grad = np.zeros(grid.n_points, dtype=complex)
        # Term 1: d/dEz of Ez * conj(A H) at the port line.
        grad[line] += scale * np.conj(h_bar)
        # Term 2: through H = h_factor * (curl @ Ez) in the conj(Ez) * A H
        # product; A^T spreads half the line selector onto each straddling
        # row (a clipped edge port repeats its row in ``curl``, which sums).
        line_weight = 0.5 * scale * np.conj(ez_flat[line])
        grad += h_factor * (curl.T @ np.concatenate([line_weight, line_weight]))
        return self.weight * value, self.weight * grad.reshape(grid.shape)


@functools.lru_cache(maxsize=256)
def _h_line_curl(port: Port, grid: Grid, omega: float):
    """``(line, curl, h_factor, sign)`` of a port's flux in the x- or y-normal form.

    ``line`` holds the flat rows of the port's Ez line; ``curl`` stacks the
    curl rows of its two straddling H lines (:func:`port_h_indices`), so
    ``h_factor * (curl @ Ez)`` is both H lines and nothing else.
    """
    derivs = operators(grid, omega)
    if port.normal_axis == "x":
        curl_rows, h_factor, sign = derivs["Dxb"], 1.0 / (1j * omega * MU_0), -1.0
    else:
        curl_rows, h_factor, sign = derivs["Dyb"], -1.0 / (1j * omega * MU_0), +1.0
    flat = np.arange(grid.n_points).reshape(grid.shape)
    index, index_up = port_h_indices(port, grid)
    line = flat[index].ravel()
    curl = curl_rows[np.concatenate([line, flat[index_up].ravel()])].tocsr()
    line.flags.writeable = False  # shared by every caller of the memo
    return line, curl, h_factor, sign


class CompositeObjective(Objective):
    """Weighted sum of objectives (the weights live inside the terms)."""

    def __init__(self, terms: list[Objective]):
        if not terms:
            raise ValueError("composite objective needs at least one term")
        self.terms = list(terms)

    def value_and_adjoint_source(
        self, sim: Simulation, result: SimulationResult
    ) -> tuple[float, np.ndarray]:
        total = 0.0
        adjoint = np.zeros(sim.grid.shape, dtype=complex)
        for term in self.terms:
            value, source = term.value_and_adjoint_source(sim, result)
            total += value
            adjoint += source
        return total, adjoint


def objective_for_spec(spec, kind: str = "mode") -> CompositeObjective:
    """Build the default objective for a :class:`repro.devices.base.TargetSpec`.

    Each monitored port contributes a transmission term weighted by the spec's
    port weight (positive for wanted ports, negative for crosstalk ports).
    """
    terms: list[Objective] = []
    for port_name, weight in spec.port_weights.items():
        if kind == "mode":
            # Output ports are measured in their fundamental mode.
            terms.append(ModeTransmissionObjective(port_name, 0, weight))
        elif kind == "flux":
            terms.append(FluxTransmissionObjective(port_name, weight))
        else:
            raise ValueError(f"unknown objective kind {kind!r}")
    return CompositeObjective(terms)
