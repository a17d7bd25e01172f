"""1-D slab waveguide eigenmode solver for port sources and modal overlaps.

For the Ez polarization a guided mode propagating along the port normal has a
transverse profile ``phi(t)`` satisfying::

    phi'' + k0^2 eps_r(t) phi = beta^2 phi

The discrete operator is a symmetric tridiagonal matrix, so the dense
eigendecomposition of a port cross-section (tens of points) is instantaneous.
Guided modes are those with effective index between the cladding and core
indices; they are returned sorted by decreasing effective index (fundamental
first), which is how the multi-mode devices (MDM) address higher-order modes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import C_0
from repro.utils.cache import BoundedCache
from repro.utils.executor import one_blas_thread


@dataclass
class ModeProfile:
    """A guided eigenmode of a 1-D cross-section.

    Attributes
    ----------
    profile:
        Real mode profile sampled on the cross-section, normalized to unit
        L2 norm (``sum |phi|^2 * dl = 1``).
    neff:
        Effective index ``beta / k0``.
    order:
        Mode order (0 = fundamental).
    dl:
        Sampling step of the cross-section in micrometres.
    """

    profile: np.ndarray
    neff: float
    order: int
    dl: float

    @property
    def beta(self) -> float:
        """Propagation constant in rad/um (for the stored effective index)."""
        return 2.0 * np.pi * self.neff / self.wavelength if self.wavelength else 0.0

    wavelength: float = 0.0


def _check_eps_line(eps_line: np.ndarray) -> np.ndarray:
    eps_line = np.asarray(eps_line, dtype=float)
    if eps_line.ndim != 1:
        raise ValueError(f"expected a 1-D permittivity line, got shape {eps_line.shape}")
    if eps_line.size < 3:
        raise ValueError("cross-section must contain at least 3 points")
    return eps_line


def _slab_operator(eps_line: np.ndarray, dl_m: float, k0: float) -> np.ndarray:
    """Dense symmetric tridiagonal operator: second difference + k0^2 eps."""
    n = eps_line.size
    main = -2.0 * np.ones(n) / dl_m**2 + k0**2 * eps_line
    off = np.ones(n - 1) / dl_m**2
    return np.diag(main) + np.diag(off, 1) + np.diag(off, -1)


def _guided_modes(
    eigvals: np.ndarray,
    eigvecs: np.ndarray,
    eps_line: np.ndarray,
    dl_um: float,
    k0: float,
    num_modes: int,
) -> list[ModeProfile]:
    """Select, normalize and sign-fix the guided modes of one eigendecomposition."""
    eps_clad = float(eps_line.min())
    eps_core = float(eps_line.max())
    k0_um = k0 * 1e-6  # rad/um for effective-index bookkeeping

    modes: list[ModeProfile] = []
    # eigh returns ascending eigenvalues; guided modes have the largest beta^2.
    for beta_sq, vec in sorted(zip(eigvals, eigvecs.T), key=lambda t: -t[0]):
        if beta_sq <= 0:
            continue
        neff = float(np.sqrt(beta_sq) / k0)
        if neff <= np.sqrt(eps_clad) + 1e-9 or neff > np.sqrt(eps_core) + 1e-9:
            continue
        profile = vec / np.sqrt(np.sum(np.abs(vec) ** 2) * dl_um)
        # Fix the sign so the lobe with the largest magnitude is positive.
        peak = profile[np.argmax(np.abs(profile))]
        if peak < 0:
            profile = -profile
        modes.append(
            ModeProfile(
                profile=profile,
                neff=neff,
                order=len(modes),
                dl=dl_um,
                wavelength=2.0 * np.pi / (k0_um) if k0_um else 0.0,
            )
        )
        if len(modes) >= num_modes:
            break
    return modes


# Process-wide cache of solved mode lines: key -> (num_modes the solve asked
# for, guided modes found).  Port cross-sections are tiny and rarely change (an
# optimization loop re-solves the *same* lines every iteration: the design
# region does not touch the ports), so modes are cached by cross-section
# content, which also keeps in-place permittivity edits from reading stale
# modes.
_MODE_CACHE = BoundedCache(512)


def _cached_modes(key: tuple, num_modes: int) -> list[ModeProfile] | None:
    """Cached modes for ``key`` if the entry can serve ``num_modes``.

    Mode selection is incremental (the first ``k`` modes do not depend on how
    many were requested), so an entry serves any request it solved for — or
    any request at all when it found fewer modes than it asked for, meaning
    the line guides no more.
    """
    entry = _MODE_CACHE.get(key)
    if entry is None:
        return None
    solved_for, modes = entry
    if solved_for >= num_modes or len(modes) < solved_for:
        return modes[:num_modes]
    return None


def solve_slab_modes(
    eps_line: np.ndarray,
    dl_um: float,
    omega: float,
    num_modes: int = 2,
) -> list[ModeProfile]:
    """Solve for the guided modes of a 1-D permittivity cross-section.

    Parameters
    ----------
    eps_line:
        Relative permittivity sampled along the cross-section.
    dl_um:
        Sampling step in micrometres.
    omega:
        Angular frequency in rad/s.
    num_modes:
        Maximum number of guided modes to return.

    Returns
    -------
    list of ModeProfile
        Guided modes sorted by decreasing effective index.  The list may be
        shorter than ``num_modes`` (or empty) if the cross-section guides fewer
        modes.
    """
    return solve_slab_modes_batch([eps_line], dl_um, omega, num_modes=num_modes)[0]


def solve_slab_modes_batch(
    eps_lines: list[np.ndarray],
    dl_um: float,
    omega: float,
    num_modes: int = 2,
) -> list[list[ModeProfile]]:
    """Solve the guided modes of many port cross-sections in one pass.

    Cross-sections of equal length are stacked into a single batched
    ``np.linalg.eigh`` call, so a simulation (or a dataset-generation shard)
    pays one LAPACK dispatch per distinct line length instead of one dense
    eigendecomposition per port per excitation.  Results per line are
    identical to :func:`solve_slab_modes` on that line.

    Parameters
    ----------
    eps_lines:
        Relative-permittivity cross-sections (1-D arrays, possibly of
        different lengths).
    dl_um, omega, num_modes:
        As in :func:`solve_slab_modes`, shared by every line.

    Returns
    -------
    list of list of ModeProfile
        One guided-mode list per input line, in input order.
    """
    lines = [_check_eps_line(line) for line in eps_lines]
    dl_m = dl_um * 1e-6
    k0 = omega / C_0  # rad/m

    results: list[list[ModeProfile] | None] = [None] * len(lines)
    keys: list[tuple] = []
    for index, line in enumerate(lines):
        key = (line.tobytes(), line.size, float(dl_um), float(omega))
        keys.append(key)
        results[index] = _cached_modes(key, num_modes)

    by_length: dict[int, list[int]] = {}
    for index, line in enumerate(lines):
        if results[index] is None:
            by_length.setdefault(line.size, []).append(index)

    for indices in by_length.values():
        stack = np.stack([_slab_operator(lines[i], dl_m, k0) for i in indices], axis=0)
        with one_blas_thread():  # cached process-wide: independent of the caller
            eigvals, eigvecs = np.linalg.eigh(stack)
        for position, index in enumerate(indices):
            modes = _guided_modes(
                eigvals[position], eigvecs[position], lines[index], dl_um, k0, num_modes
            )
            _MODE_CACHE.put(keys[index], (num_modes, modes))
            results[index] = modes
    return results


def mode_source_amplitude(mode: ModeProfile) -> np.ndarray:
    """Current-source amplitude along the port for injecting ``mode``.

    A line current with the mode profile excites the guided mode (in both
    directions); absolute power is fixed by the normalization run performed by
    :class:`repro.fdfd.simulation.Simulation`.
    """
    return mode.profile.astype(complex)


def overlap_coefficient(ez_line: np.ndarray, mode: ModeProfile) -> complex:
    """Complex modal overlap ``c = sum Ez(t) phi(t) dl`` along a port line.

    With the unit-norm convention of :func:`solve_slab_modes`, ``|c|^2`` is
    proportional to the power carried by the mode; ratios of ``|c|^2`` between
    a device run and a normalization run give power transmission.
    """
    ez_line = np.asarray(ez_line)
    if ez_line.shape != mode.profile.shape:
        raise ValueError(
            f"field line shape {ez_line.shape} does not match mode {mode.profile.shape}"
        )
    return complex(np.sum(ez_line * mode.profile) * mode.dl)
