"""Base classes shared by all benchmark devices.

A device is defined by:

* a simulation grid at a chosen fidelity (cell size),
* a background permittivity containing the access waveguides and cladding,
* a rectangular design region where the topology is optimized,
* ports for sources and monitors, and
* a list of :class:`TargetSpec` describing which excitation should couple into
  which output port — the specs drive both the inverse-design objective and
  the figure-of-merit labels attached to dataset samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.constants import DEFAULT_WAVELENGTH, EPS_SI, EPS_SIO2
from repro.fdfd.grid import Grid
from repro.fdfd.monitors import Port
from repro.fdfd.simulation import Simulation, SimulationResult

# Cell sizes (micrometres) of the two fidelity levels of MAPS-Data.
FIDELITY_DL = {"high": 0.05, "low": 0.1}


@dataclass(frozen=True)
class TargetSpec:
    """One excitation condition and its routing target.

    Attributes
    ----------
    source_port:
        Port to excite.
    source_mode:
        Guided-mode index injected at the source port.
    wavelength:
        Free-space wavelength in micrometres for this excitation.
    port_weights:
        Mapping from monitored port name to objective weight: ``+1`` for the
        wanted output, negative values penalize crosstalk ports.
    state:
        Device-state parameters for active devices (e.g. ``{"heater": 1.0}``);
        empty for passive devices.
    weight:
        Relative weight of this spec in the total figure of merit.
    """

    source_port: str
    source_mode: int = 0
    wavelength: float = DEFAULT_WAVELENGTH
    port_weights: dict[str, float] = field(default_factory=dict)
    state: dict[str, float] = field(default_factory=dict)
    weight: float = 1.0

    def monitored_ports(self) -> list[str]:
        return list(self.port_weights)


def positive_weight_norm(port_weights: dict[str, float]) -> float:
    """Sum of the positive port weights: the score of a perfect router."""
    return sum(w for w in port_weights.values() if w > 0)


@dataclass
class DeviceGeometry:
    """Concrete geometry of a device at one fidelity level."""

    grid: Grid
    eps_background: np.ndarray
    design_slice: tuple[slice, slice]
    ports: list[Port]
    eps_core: float = EPS_SI
    eps_clad: float = EPS_SIO2

    @property
    def design_shape(self) -> tuple[int, int]:
        """Shape of the design region in grid cells."""
        sx, sy = self.design_slice
        return (sx.stop - sx.start, sy.stop - sy.start)

    def design_mask(self) -> np.ndarray:
        """Boolean mask of the design region on the full grid."""
        mask = np.zeros(self.grid.shape, dtype=bool)
        mask[self.design_slice] = True
        return mask

    def eps_with_design(self, density: np.ndarray) -> np.ndarray:
        """Insert a density pattern ``rho in [0, 1]`` into the design region.

        The permittivity interpolates linearly between cladding (``rho = 0``)
        and core (``rho = 1``), which is the standard density parametrization
        of topology optimization.
        """
        density = np.asarray(density, dtype=float)
        if density.shape != self.design_shape:
            raise ValueError(
                f"density shape {density.shape} does not match design region "
                f"{self.design_shape}"
            )
        if density.min() < -1e-9 or density.max() > 1.0 + 1e-9:
            raise ValueError("density values must lie in [0, 1]")
        eps = self.eps_background.copy()
        eps[self.design_slice] = self.eps_clad + (self.eps_core - self.eps_clad) * np.clip(
            density, 0.0, 1.0
        )
        return eps


class Device:
    """Base class for benchmark devices.

    Subclasses implement :meth:`_build_geometry` and define :attr:`specs`.

    Parameters
    ----------
    fidelity:
        ``"high"`` (fine mesh) or ``"low"`` (coarse mesh), or a custom cell
        size passed through ``dl``.
    dl:
        Explicit cell size in micrometres (overrides ``fidelity``).
    """

    name: str = "device"

    def __init__(self, fidelity: str = "low", dl: float | None = None):
        if dl is None:
            if fidelity not in FIDELITY_DL:
                raise ValueError(
                    f"unknown fidelity {fidelity!r}; expected one of {sorted(FIDELITY_DL)}"
                )
            dl = FIDELITY_DL[fidelity]
        self.fidelity = fidelity
        self.dl = float(dl)
        self.geometry = self._build_geometry(self.dl)
        self.specs = self._build_specs()

    # -- interface for subclasses ------------------------------------------------
    def _build_geometry(self, dl: float) -> DeviceGeometry:
        raise NotImplementedError

    def _build_specs(self) -> list[TargetSpec]:
        raise NotImplementedError

    # -- state handling (active devices override) -----------------------------------
    def apply_state(self, eps_r: np.ndarray, state: dict[str, float]) -> np.ndarray:
        """Modify the permittivity according to a device state (no-op by default)."""
        if state:
            raise ValueError(f"{self.name} is a passive device; state {state} not supported")
        return eps_r

    # -- nonlinearity (Kerr devices override/parametrize) ---------------------------
    #: Default Kerr coefficient of the device's nonlinear material; 0.0 for
    #: the (linear) bulk of the zoo.  Kerr devices set a calibrated value.
    chi3: float = 0.0

    def chi3_map(self, chi3: float | None = None) -> np.ndarray:
        """Grid-shaped Kerr coefficient map ``chi3(r)`` for nonlinear solves.

        The default places the nonlinear material uniformly over the design
        region (where the optimizable — and for Kerr devices, nonlinear —
        material lives) and zero elsewhere, so access waveguides and PML stay
        strictly linear.  ``chi3`` overrides the device default
        (:attr:`chi3`); subclasses may override for non-uniform materials.
        """
        value = self.chi3 if chi3 is None else float(chi3)
        out = np.zeros(self.grid.shape)
        out[self.geometry.design_slice] = value
        return out

    # -- convenience -------------------------------------------------------------------
    @property
    def grid(self) -> Grid:
        return self.geometry.grid

    @property
    def design_shape(self) -> tuple[int, int]:
        return self.geometry.design_shape

    @property
    def wavelengths(self) -> list[float]:
        """All wavelengths referenced by the target specs (sorted, unique)."""
        return sorted({spec.wavelength for spec in self.specs})

    def eps_with_design(self, density: np.ndarray) -> np.ndarray:
        return self.geometry.eps_with_design(density)

    def simulation(
        self,
        density: np.ndarray,
        wavelength: float | None = None,
        state: dict | None = None,
        engine=None,
    ) -> Simulation:
        """Build a :class:`Simulation` for a design density and device state.

        ``engine`` selects the solver fidelity tier (an engine instance or a
        registry name such as ``"recycled"`` or ``"neural:<checkpoint>"``);
        None solves exactly.
        """
        eps = self.eps_with_design(density)
        eps = self.apply_state(eps, state or {})
        wavelength = wavelength if wavelength is not None else self.specs[0].wavelength
        return Simulation(self.grid, eps, wavelength, self.geometry.ports, engine=engine)

    def simulate_spec(self, density: np.ndarray, spec: TargetSpec) -> SimulationResult:
        """Run the forward simulation for one target spec."""
        sim = self.simulation(density, wavelength=spec.wavelength, state=spec.state)
        return sim.solve(
            source_port=spec.source_port,
            mode_index=spec.source_mode,
            monitor_ports=spec.monitored_ports(),
        )

    def figure_of_merit(self, density: np.ndarray) -> float:
        """Weighted figure of merit across all target specs.

        For each spec the contribution is ``sum_p w_p T_p`` (positive weights
        reward transmission into the wanted port, negative weights penalize
        crosstalk).  Specs are combined by their weights and normalized so a
        perfect router scores 1.
        """
        total = 0.0
        weight_sum = 0.0
        for spec in self.specs:
            result = self.simulate_spec(density, spec)
            contribution = sum(
                w * result.transmissions.get(port, 0.0)
                for port, w in spec.port_weights.items()
            )
            total += spec.weight * contribution
            weight_sum += spec.weight * max(positive_weight_norm(spec.port_weights), 1e-12)
        return float(total / weight_sum) if weight_sum else 0.0

    def initial_density(self, kind: str = "uniform", rng=None) -> np.ndarray:
        """Convenience initial designs (see also :mod:`repro.invdes.initialization`)."""
        from repro.invdes.initialization import initial_density

        return initial_density(self, kind=kind, rng=rng)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(fidelity={self.fidelity!r}, dl={self.dl}, "
            f"grid={self.grid.shape}, design={self.design_shape})"
        )


# --------------------------------------------------------------------------- #
# geometry helpers shared by the concrete devices
# --------------------------------------------------------------------------- #
def make_grid(domain_x: float, domain_y: float, dl: float, npml_um: float = 0.6) -> Grid:
    """Grid covering ``domain_x x domain_y`` micrometres plus PML on all sides."""
    npml = max(int(round(npml_um / dl)), 8)
    nx = int(round(domain_x / dl)) + 2 * npml
    ny = int(round(domain_y / dl)) + 2 * npml
    return Grid(nx=nx, ny=ny, dl=dl, npml=npml)


def add_horizontal_waveguide(
    eps: np.ndarray,
    grid: Grid,
    y_center: float,
    width: float,
    x_start: float | None = None,
    x_stop: float | None = None,
    value: float = EPS_SI,
) -> None:
    """Draw a horizontal waveguide (along x) into ``eps`` in place."""
    sx = grid.slice_x(0.0 if x_start is None else x_start, grid.size_x if x_stop is None else x_stop)
    sy = grid.slice_y(y_center - width / 2, y_center + width / 2)
    eps[sx, sy] = value


def add_vertical_waveguide(
    eps: np.ndarray,
    grid: Grid,
    x_center: float,
    width: float,
    y_start: float | None = None,
    y_stop: float | None = None,
    value: float = EPS_SI,
) -> None:
    """Draw a vertical waveguide (along y) into ``eps`` in place."""
    sy = grid.slice_y(0.0 if y_start is None else y_start, grid.size_y if y_stop is None else y_stop)
    sx = grid.slice_x(x_center - width / 2, x_center + width / 2)
    eps[sx, sy] = value


def centered_design_slice(grid: Grid, size_x: float, size_y: float) -> tuple[slice, slice]:
    """Design-region slice of ``size_x x size_y`` micrometres centred in the domain."""
    cx, cy = grid.size_x / 2, grid.size_y / 2
    return (
        grid.slice_x(cx - size_x / 2, cx + size_x / 2),
        grid.slice_y(cy - size_y / 2, cy + size_y / 2),
    )
