"""Ports, flux monitors and modal overlaps.

A :class:`Port` is a straight line segment on the grid, normal to either the x
or the y axis, used both to inject mode sources and to measure transmission.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from repro.fdfd.grid import Grid
from repro.fdfd.modes import ModeProfile, overlap_coefficient, solve_slab_modes


@dataclass(frozen=True)
class Port:
    """A port: a line segment normal to one of the axes.

    Attributes
    ----------
    name:
        Identifier used in monitor dictionaries ("in", "out", "drop", ...).
    normal_axis:
        ``"x"`` if the port plane is normal to x (the line spans y), ``"y"``
        otherwise.
    position:
        Coordinate of the plane along the normal axis, in micrometres.
    center:
        Centre of the line segment along the transverse axis, in micrometres.
    span:
        Length of the line segment along the transverse axis, in micrometres.
    direction:
        +1 if power is expected to flow towards increasing coordinate through
        the port, -1 otherwise.  Used to sign flux measurements.
    """

    name: str
    normal_axis: str
    position: float
    center: float
    span: float
    direction: int = +1

    def __post_init__(self) -> None:
        if self.normal_axis not in ("x", "y"):
            raise ValueError(f"normal_axis must be 'x' or 'y', got {self.normal_axis!r}")
        if self.span <= 0:
            raise ValueError(f"span must be positive, got {self.span}")
        if self.direction not in (-1, 1):
            raise ValueError(f"direction must be +1 or -1, got {self.direction}")

    # -- index helpers -----------------------------------------------------------
    def indices(self, grid: Grid) -> tuple:
        """Return the ``(ix, iy)`` index expression selecting the port line.

        The plane position resolves to its owning cell through the grid's
        documented rounding rule (``Grid.index_x`` / ``Grid.index_y``, i.e.
        ``floor``), the same rule used for sources and geometry, so the port
        injects and measures on one and the same row even at exact half-cell
        positions.  Memoized per ``(port, grid)``.
        """
        return _port_indices(self, grid)

    def extract_line(self, field: np.ndarray, grid: Grid) -> np.ndarray:
        """Extract the field values along the port line."""
        return np.asarray(field)[self.indices(grid)]

    def eps_line(self, eps_r: np.ndarray, grid: Grid) -> np.ndarray:
        """Extract the permittivity cross-section along the port line."""
        return np.real(np.asarray(eps_r)[self.indices(grid)])

    def solve_modes(
        self, eps_r: np.ndarray, grid: Grid, omega: float, num_modes: int = 2
    ) -> list[ModeProfile]:
        """Solve the slab modes of the port cross-section."""
        return solve_slab_modes(self.eps_line(eps_r, grid), grid.dl, omega, num_modes)

    def scatter_line(self, values: np.ndarray, grid: Grid) -> np.ndarray:
        """Place ``values`` along the port line of a zero-initialized grid array."""
        out = np.zeros(grid.shape, dtype=complex)
        index = self.indices(grid)
        line = out[index]
        values = np.asarray(values)
        if values.shape != line.shape:
            raise ValueError(
                f"value line shape {values.shape} does not match port line {line.shape}"
            )
        out[index] = values
        return out


@functools.lru_cache(maxsize=1024)
def _port_indices(port: Port, grid: Grid) -> tuple:
    if port.normal_axis == "x":
        ix = grid.index_x(port.position)
        transverse = grid.slice_y(port.center - port.span / 2, port.center + port.span / 2)
        return ix, transverse
    iy = grid.index_y(port.position)
    transverse = grid.slice_x(port.center - port.span / 2, port.center + port.span / 2)
    return transverse, iy


def _shifted(port: Port, grid: Grid, index: tuple, step: int) -> tuple:
    """A port-line index expression moved ``step`` cells along the normal, clipped to the grid."""
    if port.normal_axis == "x":
        ix, transverse = index
        return min(max(ix + step, 0), grid.nx - 1), transverse
    transverse, iy = index
    return transverse, min(max(iy + step, 0), grid.ny - 1)


@functools.lru_cache(maxsize=1024)
def port_h_indices(port: Port, grid: Grid) -> tuple[tuple, tuple]:
    """Index expressions of the two H samples straddling the port's Ez line.

    The backward-difference curls in :meth:`FdfdSolver.e_to_h` place ``Hy[i]``
    at ``x = i * dl`` and ``Hx[:, j]`` at ``y = j * dl`` — half a cell below
    the Ez samples at ``(i + 0.5) * dl``.  Colocating H on the Ez line
    therefore means averaging the sample *at* the port row with the one just
    above it; this returns both index expressions (the upper one clipped at
    the grid edge, where ports never sit in practice).  Memoized per
    ``(port, grid)``.
    """
    index = port.indices(grid)
    return index, _shifted(port, grid, index, +1)


@functools.lru_cache(maxsize=64)
def port_rows(ports: tuple[Port, ...], grid: Grid) -> np.ndarray:
    """Flat grid rows every port measurement and port objective reads or writes.

    Per port: the two H lines of :func:`port_h_indices` (the first is the Ez
    line itself) and, for each, the Ez line one cell below that its
    backward-difference curl reads.  So the port's Ez line and the line on
    either side, over its span.  Mode sources, modal overlaps, Poynting
    fluxes and both objectives' adjoint sources all live here.  Sorted,
    read-only and memoized per ``(ports, grid)``.
    """
    mask = np.zeros(grid.shape, dtype=bool)
    for port in ports:
        for index in port_h_indices(port, grid):
            mask[index] = True
            mask[_shifted(port, grid, index, -1)] = True
    rows = np.flatnonzero(mask.ravel())
    rows.flags.writeable = False
    return rows


def poynting_flux_through_port(
    ez: np.ndarray,
    hx: np.ndarray,
    hy: np.ndarray,
    port: Port,
    grid: Grid,
) -> float:
    """Time-averaged Poynting flux through a port, signed by the port direction.

    ``S = 0.5 Re(E x H*)``; only the component along the port normal
    contributes.  E and H live half a cell apart on the Yee grid, so the two H
    samples straddling the Ez line are averaged onto it before forming the
    product (see :func:`port_h_indices`) — sampling H at the raw port index
    instead would bias the flux by O(dl).  The result has arbitrary absolute
    units — transmission is a ratio of fluxes between a device run and a
    normalization run.
    """
    index, index_up = port_h_indices(port, grid)
    ez_line = np.asarray(ez)[index]
    if port.normal_axis == "x":
        h = np.asarray(hy)
        h_line = 0.5 * (h[index] + h[index_up])
        flux = -0.5 * np.real(np.sum(ez_line * np.conj(h_line))) * grid.dl_m
    else:
        h = np.asarray(hx)
        h_line = 0.5 * (h[index] + h[index_up])
        flux = 0.5 * np.real(np.sum(ez_line * np.conj(h_line))) * grid.dl_m
    return float(port.direction * flux)


def mode_overlap(ez: np.ndarray, port: Port, mode: ModeProfile, grid: Grid) -> complex:
    """Complex overlap of the field with a port mode (see :func:`overlap_coefficient`)."""
    return overlap_coefficient(port.extract_line(ez, grid), mode)
