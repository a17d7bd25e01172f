"""Pluggable solver engines with a shared factorization cache.

This module is the fidelity seam of the FDFD stack: everything that turns a
right-hand side into a field — :class:`~repro.fdfd.solver.FdfdSolver`, the
:class:`~repro.fdfd.simulation.Simulation` facade, normalization runs, the
adjoint path in :mod:`repro.invdes.adjoint` and the dataset generator — routes
its linear solves through a :class:`SolverEngine`.  Swapping the engine swaps
the fidelity tier:

* :class:`DirectEngine` — exact sparse solves via SuperLU.  One factorization
  is computed per ``(grid, omega, permittivity)`` triple and reused for
  arbitrarily many right-hand sides (forward, adjoint and normalization solves
  are triangular back-substitutions against the same LU).  Given a device's
  design region, a solve that names its port rows and whose right-hand
  sides vanish off the region and those rows *condenses*: the fixed exterior
  is factored once, each design only on the region (the Schur complement),
  and the exterior is read only through its port block.  That is how labels
  are made; every other solve is one full-grid solve.
* :class:`RecycledEngine` — the optimization-loop tier: keeps the exact LU of
  a *reference* permittivity and solves nearby permittivities (consecutive
  Adam iterates differ only on the operator diagonal) by iterative
  refinement against that LU, refactorizing when refinement fails, the
  design drifts too far or the sweep counts creep up.
  It recycles on a device's design region only: the loop runs on the
  region's Schur complement against an exterior that stays resident.
* ``"neural"`` — a trained surrogate registered by
  :mod:`repro.surrogate.neural_solver` (see :class:`NeuralEngine` there).
* ``"service"`` — the coalescing async front-end registered by
  :mod:`repro.service.solve_service`: requests from concurrent call sites
  are micro-batched into single ``solve_batch`` calls on a backing tier.

Every LU a tier builds is an exact complex128 SuperLU factor from
:func:`factor_lu`.  Fidelity in the MAPS sense is a device's grid step, not
an approximate solver.

Exact engines are stateless with respect to the problem: all per-operator
state lives in the process-wide :class:`FactorizationCache`, keyed by the
grid, the angular frequency and a cheap content fingerprint of the
permittivity (:func:`eps_fingerprint`).  The cache is what lets independent
call sites — a ``Simulation``, its normalization run, ``evaluate_spec``'s
adjoint solve, the dataset generator — share one LU decomposition without
coordinating.  The recycled tier shares only its exteriors through it; each
of its references owns its LU.

New backends (GPU solvers, sharded solvers, ...) register themselves with
:func:`register_engine` and become available by name everywhere an engine is
accepted (``Simulation(engine="...")``, ``FdfdSolver(engine=...)``,
``NumericalFieldBackend(engine=...)``).
"""

from __future__ import annotations

import hashlib
import inspect
import itertools
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, fields as dataclass_fields
from typing import ClassVar

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import blas, lapack

from repro.constants import EPSILON_0, MU_0
from repro.fdfd.derivatives import derivative_operators
from repro.fdfd.grid import Grid
from repro.fdfd.lazy import Deferred
from repro.utils.cache import BoundedCache
from repro.utils.executor import one_blas_thread

__all__ = [
    "eps_fingerprint",
    "operators",
    "warmup_operators",
    "assemble_system_matrix",
    "update_system_diagonal",
    "FactorizationCache",
    "CacheStats",
    "default_factorization_cache",
    "SolveWorkspace",
    "SolverEngine",
    "DirectEngine",
    "RecycledEngine",
    "RecycleStats",
    "scoped_stats",
    "CountingEngine",
    "factor_lu",
    "iterative_refine",
    "RefinementError",
    "register_engine",
    "available_engines",
    "split_engine_name",
    "make_engine",
    "resolve_engine",
]


# --------------------------------------------------------------------------- #
# permittivity fingerprints
# --------------------------------------------------------------------------- #
def eps_fingerprint(eps_r: np.ndarray) -> str:
    """Cheap content fingerprint of a permittivity map.

    A hex digest over the raw bytes (plus shape and dtype, so reinterpreted
    buffers cannot collide).  Unlike the full-array equality compare it
    replaces, the digest doubles as a dictionary key, which is what allows a
    process-wide cache shared between independent solver instances.
    """
    eps_r = np.ascontiguousarray(eps_r)
    digest = hashlib.sha1()
    digest.update(str(eps_r.shape).encode())
    digest.update(str(eps_r.dtype).encode())
    digest.update(eps_r.tobytes())
    return digest.hexdigest()


# --------------------------------------------------------------------------- #
# operator assembly (shared, permittivity-independent parts cached)
# --------------------------------------------------------------------------- #
_OPERATOR_CACHE = BoundedCache(8)


def operators(grid: Grid, omega: float) -> dict:
    """Derivative operators and the curl-curl block for ``(grid, omega)``.

    The returned dict contains ``Dxf``/``Dxb``/``Dyf``/``Dyb`` and
    ``curl_curl`` (the permittivity-independent part of the Maxwell operator).
    Cached process-wide for the 8 most recently used ``(grid, omega)`` pairs;
    a hit refreshes the entry, so a hot grid survives however many cold ones
    pass through.
    """
    key = (grid, float(omega))
    entry = _OPERATOR_CACHE.get(key)
    if entry is None:
        entry = derivative_operators(grid, float(omega))
        entry["curl_curl"] = (
            entry["Dxf"] @ entry["Dxb"] + entry["Dyf"] @ entry["Dyb"]
        ) / MU_0
        _OPERATOR_CACHE.put(key, entry)
    return entry


def warmup_operators(grid: Grid, omegas: float | list[float]) -> int:
    """Pre-build the permittivity-independent operators for a set of frequencies.

    Worker processes of the sharded dataset generator call this once per
    device before their solve loop, so derivative-operator assembly (shared by
    every design of the shard) happens up front instead of inside the first
    timed solve.  Returns the number of operator sets now cached.
    """
    if np.isscalar(omegas):
        omegas = [omegas]
    for omega in omegas:
        operators(grid, float(omega))
    return len(_OPERATOR_CACHE)


def _system_template(grid: Grid, omega: float) -> dict:
    """CSR template of ``A(eps)`` with pre-located diagonal entries.

    ``A(eps) = curl_curl + omega^2 eps0 diag(eps)``: consecutive operators on
    the same grid share everything except the diagonal.  The template — built
    once per ``(grid, omega)`` and stored with the cached operators — holds
    the CSR pattern of the full operator plus, per row, the position of the
    diagonal entry inside the ``data`` array, so assembling a new permittivity
    is a data copy and a vectorized diagonal overwrite instead of a sparse
    matrix re-summation.
    """
    entry = operators(grid, omega)
    template = entry.get("system_template")
    if template is None:
        # Adding an explicit (zero) diagonal fixes the union sparsity pattern
        # of curl_curl + diags(...), so incremental updates are bit-identical
        # to from-scratch assembly for any diagonal values.
        matrix = (entry["curl_curl"] + sp.diags(np.zeros(grid.n_points))).tocsr()
        matrix.sort_indices()
        rows = np.repeat(np.arange(grid.n_points), np.diff(matrix.indptr))
        diag_positions = np.flatnonzero(matrix.indices == rows)
        if diag_positions.size != grid.n_points:  # pragma: no cover - defensive
            raise RuntimeError("system-matrix template is missing diagonal entries")
        entry["system_template"] = template = {
            "matrix": matrix,
            "diag_positions": diag_positions,
            "base_diagonal": matrix.data[diag_positions].copy(),
        }
    return template


def assemble_system_matrix(grid: Grid, omega: float, eps_r: np.ndarray) -> sp.csr_matrix:
    """Assemble the Maxwell operator ``A(eps_r)`` for one grid and frequency.

    Uses the cached :func:`_system_template`: only the operator diagonal
    depends on the permittivity, so assembly copies the template data and
    overwrites the diagonal in place — bit-identical to (but much cheaper
    than) re-summing ``curl_curl + diags(...)``.  The returned matrix owns its
    ``data`` but shares the index structure with the template; treat the
    sparsity pattern as read-only.
    """
    eps_r = np.asarray(eps_r)
    if eps_r.shape != grid.shape:
        raise ValueError(f"eps_r shape {eps_r.shape} does not match grid {grid.shape}")
    template = _system_template(grid, omega)
    data = template["matrix"].data.copy()
    diagonal = omega**2 * EPSILON_0 * eps_r.ravel()
    data[template["diag_positions"]] = template["base_diagonal"] + diagonal
    base = template["matrix"]
    return sp.csr_matrix((data, base.indices, base.indptr), shape=base.shape)


def update_system_diagonal(
    matrix: sp.csr_matrix, grid: Grid, omega: float, eps_r: np.ndarray
) -> sp.csr_matrix:
    """Refresh the permittivity diagonal of an assembled operator in place.

    ``matrix`` must come from :func:`assemble_system_matrix` for the same
    ``(grid, omega)`` (same sparsity template).  This is the zero-allocation
    path of :class:`~repro.fdfd.nonlinear.KerrSolver`'s residuals, which see
    a new diagonal every iteration but an otherwise identical operator.
    """
    eps_r = np.asarray(eps_r)
    if eps_r.shape != grid.shape:
        raise ValueError(f"eps_r shape {eps_r.shape} does not match grid {grid.shape}")
    template = _system_template(grid, omega)
    if matrix.data.shape != template["matrix"].data.shape:
        raise ValueError("matrix does not match the system template for this grid")
    diagonal = omega**2 * EPSILON_0 * eps_r.ravel()
    matrix.data[template["diag_positions"]] = template["base_diagonal"] + diagonal
    return matrix


# --------------------------------------------------------------------------- #
# factorization cache
# --------------------------------------------------------------------------- #
class StatsCounters:
    """Base for the per-engine/per-cache counter dataclasses.

    Counters are monotone tallies of work performed; fields named in
    ``_GAUGES`` are point-in-time gauges (e.g. bytes currently held) that a
    :meth:`reset` must not zero and a merge must overwrite rather than sum.
    The distinction is what lets :func:`scoped_stats` observe one bounded
    piece of work — a nonlinear outer iteration, one benchmark repeat —
    without corrupting the cumulative accounting.
    """

    _GAUGES: ClassVar[tuple[str, ...]] = ()

    def reset(self) -> None:
        """Zero every counter (gauges keep their current value)."""
        for spec in dataclass_fields(self):
            if spec.name not in self._GAUGES:
                setattr(self, spec.name, 0)

    def merge(self, other: "StatsCounters") -> None:
        """Fold another stats object of the same type into this one.

        Counters add; gauges take the other (more recent) value.
        """
        if type(other) is not type(self):
            raise TypeError(f"cannot merge {type(other).__name__} into {type(self).__name__}")
        for spec in dataclass_fields(self):
            value = getattr(other, spec.name)
            if spec.name in self._GAUGES:
                setattr(self, spec.name, value)
            else:
                setattr(self, spec.name, getattr(self, spec.name) + value)


@contextmanager
def scoped_stats(*holders):
    """Observe the stats of engines/caches over one bounded piece of work.

    Each holder (anything with a ``.stats`` counters dataclass — a
    :class:`RecycledEngine`, a :class:`FactorizationCache`, ...) temporarily
    gets a zeroed stats object (gauges carried over); the list of those
    scoped objects is yielded in holder order.  On exit the scoped counts are merged back into the
    cumulative stats, which are reinstalled — so a caller sees exactly what
    happened inside the ``with`` block while global accounting (benchmark
    totals, cache hit rates) stays intact.

    This is the fix for the seam bug nonlinear solves exposed: a fixed-point
    loop performs many inner solves per outer iteration, and without scoping,
    per-solve ``RecycleStats``/``CacheStats`` reads accumulate across outer
    iterations (and across unrelated callers sharing the default cache).
    """
    saved = []
    scoped = []
    for holder in holders:
        stats = getattr(holder, "stats", None)
        if not isinstance(stats, StatsCounters):
            raise TypeError(
                f"{type(holder).__name__} has no resettable stats; "
                "pass engines/caches whose .stats derive from StatsCounters"
            )
        fresh = type(stats)()
        for name in fresh._GAUGES:
            setattr(fresh, name, getattr(stats, name))
        holder.stats = fresh
        saved.append(stats)
        scoped.append(fresh)
    try:
        yield scoped
    finally:
        for holder, cumulative, fresh in zip(holders, saved, scoped):
            cumulative.merge(fresh)
            holder.stats = cumulative


@dataclass
class CacheStats(StatsCounters):
    """Hit/miss counters of a :class:`FactorizationCache`."""

    _GAUGES: ClassVar[tuple[str, ...]] = ("current_bytes",)

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    #: Estimated bytes held by the entries currently cached.
    current_bytes: int = 0

    @property
    def factorizations(self) -> int:
        # Every miss builds its entry.
        return self.misses

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "current_bytes": self.current_bytes,
            "factorizations": self.factorizations,
        }


def _entry_nbytes(entry) -> int:
    """Best-effort byte estimate of a cached factorization.

    Entries declaring ``nbytes`` (exteriors) are exact; SuperLU
    objects are estimated from their factor ``nnz`` (complex data plus an
    index per stored entry); anything else counts as 0 rather than guessing.
    """
    explicit = getattr(entry, "nbytes", None)
    if isinstance(explicit, (int, np.integer)):
        return int(explicit)
    total = 0
    for part in entry if isinstance(entry, tuple) else (entry,):
        data = getattr(part, "data", None)
        if isinstance(data, np.ndarray):  # assembled sparse matrices
            total += data.nbytes + getattr(part, "indices", data).nbytes
            continue
        nnz = getattr(part, "nnz", None)
        if nnz is not None:  # SuperLU-likes: 16B complex value + 4B index
            total += int(nnz) * 20
    return total


class FactorizationCache:
    """Process-wide LRU cache of sparse factorizations.

    Keys are ``(grid, omega, eps fingerprint)``; values are whatever a solver
    engine stores for that operator (a SuperLU object of the full operator or
    of a design region's Schur complement, or a factored exterior).  The
    cache is deliberately engine-agnostic: entries are namespaced by a
    ``tag`` so every engine's factorizations of the same operator coexist.
    Schur-complement factors carry their exterior's key in the tag
    (``"condensed:<key>"``), so engines with different design regions never
    read each other's.

    Factored exteriors (tag ``"exterior"``, keyed by the exterior's digest)
    are built once per device and frequency and serve every design after
    that, so they live in a second LRU of the same ``maxsize``: churn among
    per-design entries (``"direct"``, the Schur factors) can never evict an
    exterior.  The recycled tier's reference LUs are not cached here: each
    reference owns its LU.

    Most code never touches the cache directly — engines share
    :data:`default_factorization_cache` unless given their own.  Direct use
    looks like::

        cache = FactorizationCache(maxsize=4)
        lu = cache.get_or_build(grid, omega, eps_fingerprint(eps_r),
                                build=lambda: factor_lu(A), tag="direct")
        cache.stats.hits, cache.stats.misses   # factorize-once, solve-many
        cache.evict(grid, omega, fingerprint)  # e.g. after in-place eps edits

    The cache is safe to share between threads: a lock guards the LRU
    bookkeeping, while builds deliberately run *outside* it so a slow
    factorization never serializes unrelated operators.  Two threads racing
    one cold key may therefore both build — last insert wins; both entries
    solve the same operator.  (Collapsing that duplicated work is what
    :class:`~repro.service.SolveService` request coalescing is for.)

    Builds run at one BLAS thread (:func:`~repro.utils.executor.one_blas_thread`):
    an entry serves every later caller in the process, and forked workers
    inherit it, so its bytes must not depend on the thread count of whichever
    caller built it.  The pin is process-global: while a build runs, a
    concurrent caller's dense kernels run at one thread too.
    """

    def __init__(self, maxsize: int | None = None):
        if maxsize is None:
            raw = os.environ.get("REPRO_FACTORIZATION_CACHE_SIZE", "8")
            try:
                maxsize = int(raw)
            except ValueError:
                maxsize = 0
            if maxsize < 1:
                raise ValueError(
                    f"REPRO_FACTORIZATION_CACHE_SIZE={raw!r} is not a cache size; "
                    "set it to an integer of at least 1"
                )
        self.maxsize = maxsize
        # key -> (entry, estimated bytes).  Exteriors get their own table, so
        # churn among per-design entries can never evict one.
        self._entries = BoundedCache(maxsize)
        self._exteriors = BoundedCache(maxsize)
        self.stats = CacheStats()
        self._lock = threading.RLock()

    @staticmethod
    def _key(grid: Grid, omega: float, fingerprint: str, tag: str) -> tuple:
        return (grid, float(omega), fingerprint, tag)

    def _table(self, key: tuple) -> BoundedCache:
        return self._exteriors if key[3] == "exterior" else self._entries

    def get_or_build(
        self, grid: Grid, omega: float, fingerprint: str, build, tag: str = "direct"
    ):
        """Return the cached entry for the key, building it on a miss."""
        key = self._key(grid, omega, fingerprint, tag)
        with self._lock:
            cached = self._table(key).get(key)
            if cached is not None:
                self.stats.hits += 1
                return cached[0]
            self.stats.misses += 1
        with one_blas_thread():
            entry = build()
        self._insert(key, entry)
        return entry

    def _insert(self, key: tuple, entry) -> None:
        size = _entry_nbytes(entry)
        table = self._table(key)
        with self._lock:
            lost_race = table.pop(key)  # last insert wins
            if lost_race is not None:
                self.stats.current_bytes -= lost_race[1]
            for _, (_, stale_size) in table.put(key, (entry, size)):
                self.stats.current_bytes -= stale_size
                self.stats.evictions += 1
            self.stats.current_bytes += size

    def peek(self, grid: Grid, omega: float, fingerprint: str, tag: str = "direct"):
        """Return a cached entry (refreshed, like any hit) without building or counting."""
        key = self._key(grid, omega, fingerprint, tag)
        cached = self._table(key).get(key)
        return None if cached is None else cached[0]

    def evict(self, grid: Grid, omega: float, fingerprint: str) -> int:
        """Drop the entries of one operator, under every tag."""
        with self._lock:
            prefix = (grid, float(omega), fingerprint)
            keys = [key for key in self.keys() if key[:3] == prefix]
            dropped = 0
            for key in keys:
                cached = self._table(key).pop(key)
                if cached is not None:
                    self.stats.current_bytes -= cached[1]
                    dropped += 1
            return dropped

    def clear(self) -> None:
        """Drop every cached factorization and reset the statistics.

        The statistics are reset in place, so a :func:`scoped_stats` block
        that clears the cache keeps observing it.
        """
        with self._lock:
            self._entries.clear()
            self._exteriors.clear()
            self.stats.reset()
            self.stats.current_bytes = 0

    def keys(self) -> list[tuple]:
        """Cached keys ``(grid, omega, fingerprint, tag)``, least recently used first.

        Exteriors follow the other entries (each table in its own LRU order).
        """
        return self._entries.keys() + self._exteriors.keys()

    def __len__(self) -> int:
        return len(self._entries) + len(self._exteriors)


default_factorization_cache = FactorizationCache()
"""The cache shared by every engine that is not given its own.

Process-wide by design: up to ``maxsize`` factorizations, and as many factored
exteriors, stay alive for the life of the process (sized by
``REPRO_FACTORIZATION_CACHE_SIZE``, read when a cache is constructed — for
this default, at import time).  Long-running programs that are done solving
can release the memory explicitly with ``default_factorization_cache.clear()``.
"""


# --------------------------------------------------------------------------- #
# warm-start workspace
# --------------------------------------------------------------------------- #
class SolveWorkspace:
    """Cross-iteration store of fields reused as refinement initial guesses.

    Optimization loops solve an almost-identical system every iteration; the
    previous iteration's forward and adjoint fields are excellent initial
    guesses for the next one.  A workspace maps caller-chosen keys (the
    inverse-design backend keys on ``(spec, wavelength, device state)``) to
    the last solution stored under them.  Guesses only affect how fast a
    warm-startable engine converges — never what it converges to — so a stale
    or missing guess is always safe.

    Invalidate (:meth:`invalidate`) whenever the design jumps discontinuously,
    e.g. on a binarization beta-schedule step: the stored fields are then far
    from the new solution and would only slow convergence down.
    """

    def __init__(self):
        # key -> (last field, field before that); the pair enables secant
        # extrapolation of the smooth field trajectory an optimizer traces.
        self._fields: dict = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0

    def guess(self, key, shape: tuple[int, ...] | None = None) -> np.ndarray | None:
        """Best initial guess for ``key`` (None when absent or mis-shaped).

        With one stored field the guess is that field; with two it is the
        linear (secant) extrapolation ``2 f_k - f_{k-1}`` — optimizer steps
        are smooth, so extrapolating the trajectory lands closer to the next
        solution than replaying the last one.
        """
        entry = self._fields.get(key)
        if entry is None or (shape is not None and entry[0].shape != tuple(shape)):
            self.misses += 1
            return None
        self.hits += 1
        current, previous = entry
        if previous is None or previous.shape != current.shape:
            return current
        return 2.0 * current - previous

    def store(self, key, field: np.ndarray) -> None:
        """Remember ``field`` as the next initial guess for ``key``."""
        entry = self._fields.get(key)
        previous = entry[0] if entry is not None else None
        self._fields[key] = (np.asarray(field, dtype=complex), previous)

    def guess_stack(self, keys: list, shape: tuple[int, ...]) -> np.ndarray | None:
        """Stacked guesses for a batch of solves, zero where nothing is stored.

        Returns None when no key has a guess (a cold start), so engines can
        skip the warm-start path entirely.
        """
        guesses = [self.guess(key, shape) for key in keys]
        if all(guess is None for guess in guesses):
            return None
        x0 = np.zeros((len(keys), *shape), dtype=complex)
        for index, guess in enumerate(guesses):
            if guess is not None:
                x0[index] = guess
        return x0

    def invalidate(self) -> None:
        """Drop every stored field (design changed discontinuously)."""
        self._fields.clear()
        self.invalidations += 1

    def __len__(self) -> int:
        return len(self._fields)


# --------------------------------------------------------------------------- #
# the one LU factorization
# --------------------------------------------------------------------------- #
#: SuperLU settings of :func:`factor_lu`'s first factor.  The FDFD operator
#: is structurally (and, up to PML scaling, numerically) complex symmetric, so
#: a minimum-degree ordering of ``A + A^T`` with diagonal pivots keeps ~44%
#: fewer L+U entries than the default COLAMD with partial pivoting.  The
#: default is the fallback for the rare operator whose pivot-free factor is
#: inaccurate.
#:
#: ``relax=3, panel_size=4`` replace SuperLU's supernode defaults (``relax``
#: 10, ``panel_size`` 20), which suit larger and denser factors than these
#: 2D stencils give.  Only the blocking of the numeric factorization
#: changes: the L+U entries and pivots are the same and the probe residuals
#: stay below 2e-12.  Medians of 21 interleaved pairs, one BLAS thread,
#: 2-CPU host (the grids and ``A_EE`` minimum-degree ordered, each ``S`` in
#: its exterior's natural order):
#:
#: ==============================  ======  ========  ========  =====
#: matrix                          size    defaults  3 / 4     ratio
#: ==============================  ======  ========  ========  =====
#: ``S`` of the bend, low fid.        324   0.83 ms   0.60 ms   0.72
#: ``S`` of the bend, high fid.     1,296   3.89 ms   3.36 ms   0.86
#: ``S`` of the crossing            1,600   4.40 ms   3.74 ms   0.85
#: ``S`` of the WDM                 1,936   5.04 ms   4.49 ms   0.89
#: bend full grid                   8,836   20.1 ms   16.4 ms   0.82
#: bend ``A_EE``                    7,540   13.8 ms   10.9 ms   0.79
#: crossing full grid              10,816   22.6 ms   18.6 ms   0.82
#: crossing ``A_EE``                9,216   18.5 ms   14.8 ms   0.80
#: ==============================  ======  ========  ========  =====
#:
#: A sweep of ``relax`` 2-5 by ``panel_size`` 4-12 on these matrices put
#: every small pair within a few percent of 3 / 4 (3 / 8: 0.85-0.88 of the
#: defaults in geometric mean, 3 / 4: 0.82-0.84) and 5 / 12 behind; 3 / 4
#: also held on the 173² and 208² bend grids (0.80 and 0.83).
_SYMMETRIC_LU = dict(
    permc_spec="MMD_AT_PLUS_A",
    diag_pivot_thresh=0.0,
    relax=3,
    panel_size=4,
    options={"SymmetricMode": True},
)

#: The same pivot-free factor of a matrix whose rows and columns are already
#: in the elimination order wanted (no ordering step).
_NATURAL_LU = {**_SYMMETRIC_LU, "permc_spec": "NATURAL"}

#: Largest relative probe residual ``|A x - b| / |b|`` a symmetric-mode
#: factor may leave.  The worst case measured over the device zoo (both
#: fidelities, binary and random designs) is ~5e-13.
_LU_PROBE_BOUND = 1e-10


def _probed_splu(matrix: sp.csc_matrix, settings: dict):
    """SuperLU of ``matrix`` under ``settings``, or None when it fails its probe.

    The probe solves ``b = 1``; an exactly singular pivot, a non-finite
    relative residual or one above :data:`_LU_PROBE_BOUND` rejects the factor.
    """
    probe = np.ones(matrix.shape[0], dtype=matrix.dtype)
    try:
        lu = spla.splu(matrix, **settings)
    except RuntimeError:  # exactly singular without pivoting
        return None
    residual = np.linalg.norm(matrix @ lu.solve(probe) - probe) / np.linalg.norm(probe)
    return lu if residual <= _LU_PROBE_BOUND else None  # False for NaN/inf


def factor_lu(matrix: sp.spmatrix) -> spla.SuperLU:
    """SuperLU factorization of an FDFD operator: symmetric mode, then default.

    The symmetric-mode factor is checked by one probe solve (see
    :func:`_probed_splu`); a factor that fails it is replaced by SuperLU's
    default partial pivoting, whose factor is returned as is.  Every LU
    factorization in the package goes through here.
    """
    matrix = matrix.tocsc()
    lu = _probed_splu(matrix, _SYMMETRIC_LU)
    return lu if lu is not None else spla.splu(matrix)


# --------------------------------------------------------------------------- #
# design-region condensation: the fixed exterior factored once per device
# --------------------------------------------------------------------------- #
#: Unit columns of ``A_EE^{-1}`` back-substituted at a time when an exterior
#: is built without its tail-last factor.  Only their tail rows are kept, so
#: the transient is one ``(n_E, 32)`` block (~4 MB on a 104^2 grid).
_EXTERIOR_BLOCK = 32


def _lu_inverse(lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """``(L U)^{-1} = U^{-1} L^{-1}`` of dense unit-lower ``L`` and upper ``U``, in their memory.

    Two in-place triangular inversions and an in-place triangular product
    keep two ``t x t`` arrays alive, where forming ``L U`` and inverting it
    would hold three.  Both arguments (Fortran-ordered) are overwritten.
    """
    lower, info_lower = lapack.ztrtri(lower, lower=1, unitdiag=1, overwrite_c=1)
    upper, info_upper = lapack.ztrtri(upper, lower=0, overwrite_c=1)
    if info_lower or info_upper:
        raise np.linalg.LinAlgError("singular trailing block of an exterior factor")
    return blas.ztrmm(1.0, upper, lower, overwrite_b=1)


def _tail_inverse(a_ee: sp.csc_matrix, lu, tail: np.ndarray) -> np.ndarray:
    """``(A_EE^{-1})[T, T]`` for exterior positions ``tail``, rows and columns in tail order.

    Refactoring ``A_EE`` with ``T`` ordered after every other cell (those in
    ``lu``'s fill-reducing order) makes the trailing ``t x t`` block ``L22
    U22`` of the new factor the Schur complement of ``A_EE`` onto ``T``,
    whose inverse is the block wanted: one factorization and a dense
    ``t x t`` inversion instead of ``t`` back-substitutions through the
    exterior.  When the pivot-free factor fails its probe or SuperLU moves a
    pivot, the back-substitutions run instead, :data:`_EXTERIOR_BLOCK`
    columns at a time.
    """
    n, t = a_ee.shape[0], tail.size
    rest = np.ones(n, dtype=bool)
    rest[tail] = False
    order = np.argsort(lu.perm_c)
    order = np.concatenate([order[rest[order]], tail])
    ordered = a_ee[order][:, order].tocsc()
    tail_lu = _probed_splu(ordered, _NATURAL_LU)
    identity = np.arange(n)
    if (
        tail_lu is not None
        and np.array_equal(tail_lu.perm_c, identity)
        and np.array_equal(tail_lu.perm_r, identity)
    ):
        trailing = slice(n - t, n)
        lower = tail_lu.L[trailing, trailing].toarray(order="F")
        upper = tail_lu.U[trailing, trailing].toarray(order="F")
        del tail_lu, ordered  # released before the dense algebra: a lower peak
        return _lu_inverse(lower, upper)
    inverse = np.empty((t, t), dtype=complex)
    for start in range(0, t, _EXTERIOR_BLOCK):
        columns = tail[start : start + _EXTERIOR_BLOCK]
        unit = np.zeros((n, columns.size), dtype=complex)
        unit[columns, np.arange(columns.size)] = 1.0
        inverse[:, start : start + columns.size] = lu.solve(unit)[tail]
    return inverse


def _fill_reducing_order(matrix: sp.csc_matrix) -> np.ndarray:
    """The order :func:`factor_lu` eliminates a matrix of ``matrix``'s pattern in.

    Minimum degree on ``A + A^T`` (and SuperLU's postorder of the
    elimination tree) read the sparsity pattern only, so a diagonally
    dominant stand-in with that pattern, which no pivot can fail, gives the
    order of every matrix that shares it.  Renumbering by the returned
    indices makes the natural order that elimination order.
    """
    stand_in = sp.csc_matrix(
        (np.ones(matrix.nnz), matrix.indices, matrix.indptr), shape=matrix.shape
    )
    stand_in.data[_diagonal_positions(matrix)] = matrix.shape[0]
    return np.argsort(spla.splu(stand_in, **_SYMMETRIC_LU).perm_c)


def _diagonal_positions(matrix: sp.csc_matrix) -> np.ndarray:
    """Positions of the diagonal entries in a CSC matrix's ``data``."""
    column_of = np.repeat(np.arange(matrix.shape[1]), np.diff(matrix.indptr))
    return np.flatnonzero(matrix.indices == column_of)


class _Exterior:
    """The part of a device operator no design touches, factored once.

    Split the unknowns into the design rectangle ``I`` and the exterior
    ``E``: ``A = [[A_II, A_IE], [A_EI, A_EE]]``.  A design moves only the
    diagonal of ``A_II``; ``A_EE`` carries the fixed exterior permittivity
    and the couplings are pure curl-curl stencil.  This holds the LU of
    ``A_EE`` and the design-independent part of the Schur complement
    ``S = A_II - A_IE A_EE^{-1} A_EI``.  Its correction term is a dense
    ``k x k`` block on the ``k`` border cells the stencil couples to the
    exterior ring ``R``.  ``S`` is kept as a CSC template whose diagonal a
    design overwrites, the way :func:`_system_template` serves the full
    operator.  :attr:`interior` numbers ``I`` in ``S``'s fill-reducing
    order, which depends on the pattern alone (:func:`_fill_reducing_order`),
    so every design's ``S`` factors without an ordering step.

    ``ports`` (grid rows, see :func:`~repro.fdfd.monitors.port_rows`)
    outside the region form ``P``.  A second factor of ``A_EE`` eliminates
    ``T = R ∪ P`` last; its trailing block yields the *port block* ``W =
    (A_EE^{-1})[T, T]`` (:func:`_tail_inverse`), whose ring block gives the
    correction.  ``A`` is complex symmetric, so for right-hand sides whose
    exterior support lies in ``P`` (mode sources, adjoint sources of port
    objectives) every solve step that touched the whole exterior becomes a
    product with ``W``:

    * reduce: ``b_I - A_IE[:, R] W_RP b_P`` (:meth:`port_reduce`);
    * port readout: ``x_P = W_PP b_P - W_PR (A_EI x_I)_R`` (:meth:`port_readout`);
    * full recovery, only when a caller reads a full field:
      ``x_E = A_EE^{-1} (b_E - A_EI x_I)``, one back-substitution (:meth:`fill`).

    Those are the only solves an exterior serves (:meth:`serves`); an engine
    solves any other right-hand side on the full grid.
    """

    def __init__(self, grid: Grid, omega: float, eps_r: np.ndarray, region: tuple, ports):
        inside = np.zeros(grid.shape, dtype=bool)
        inside[region] = True
        interior = np.flatnonzero(inside.ravel())
        self.exterior = np.flatnonzero(~inside.ravel())
        matrix = assemble_system_matrix(grid, omega, eps_r)
        exterior_rows = matrix[self.exterior]
        a_ei = exterior_rows[:, interior].tocsr()
        a_ie = matrix[interior][:, self.exterior].tocsr()
        a_ee = exterior_rows[:, self.exterior].tocsc()
        self.lu = factor_lu(a_ee)

        ring = np.union1d(np.flatnonzero(a_ei.getnnz(axis=1)), np.flatnonzero(a_ie.getnnz(axis=0)))
        border = np.union1d(np.flatnonzero(a_ei.getnnz(axis=0)), np.flatnonzero(a_ie.getnnz(axis=1)))
        # Exterior positions of the port rows outside the region.
        ports = np.asarray(ports)
        self.ports = ports[~inside.ravel()[ports]]
        port_positions = np.searchsorted(self.exterior, self.ports)
        tail = np.concatenate([ring, np.setdiff1d(port_positions, ring)])
        block = _tail_inverse(a_ee, self.lu, tail)
        k = ring.size
        # A_EI[:, border] lives on the ring: (A_EE^{-1} A_EI)[R] = W_RR A_EI[R].
        correction = a_ie[border][:, ring] @ (block[:k, :k] @ a_ei[ring][:, border].toarray())

        # curl-curl on the design rectangle (the system template carries an
        # explicit diagonal) minus the correction.  The COO -> CSC conversion
        # sums duplicates without dropping zeros, so the diagonal is always
        # present to overwrite.
        curl_curl = _system_template(grid, omega)["matrix"][interior][:, interior].tocoo()
        rows, cols = np.meshgrid(border, border, indexing="ij")
        schur = sp.coo_matrix(
            (
                np.concatenate([curl_curl.data, -correction.ravel()]),
                (
                    np.concatenate([curl_curl.row, rows.ravel()]),
                    np.concatenate([curl_curl.col, cols.ravel()]),
                ),
            ),
            shape=curl_curl.shape,
        ).tocsc()
        order = _fill_reducing_order(schur)
        schur = schur[order][:, order].tocsc()
        schur.sort_indices()
        self.interior = interior[order]
        self.a_ei = a_ei[:, order].tocsr()
        self.a_ie = a_ie[order].tocsr()
        self.diag_positions = _diagonal_positions(schur)
        self.base_diagonal = schur.data[self.diag_positions].copy()
        self.schur = schur

        tail_of = np.full(self.exterior.size, -1)
        tail_of[tail] = np.arange(tail.size)
        on_ring = np.arange(k)
        on_ports = tail_of[port_positions]
        self._w_rp = block[np.ix_(on_ring, on_ports)]
        self._w_pp = block[np.ix_(on_ports, on_ports)]
        self._w_pr = block[np.ix_(on_ports, on_ring)]
        self._a_ie_ring = self.a_ie[:, ring].tocsr()
        self._a_ei_ring = self.a_ei[ring].tocsr()
        self._port_positions = port_positions
        self._off_ports = np.setdiff1d(self.exterior, self.ports)
        self.nbytes = (
            _entry_nbytes(self.lu)
            + _entry_nbytes((schur, self.a_ei, self.a_ie))
            + self._w_rp.nbytes
            + self._w_pp.nbytes
            + self._w_pr.nbytes
        )

    def schur_complement(self, omega: float, eps_r: np.ndarray) -> sp.csc_matrix:
        """``S(eps_r)``: the template with the design's diagonal written in."""
        data = self.schur.data.copy()
        diagonal = omega**2 * EPSILON_0 * np.asarray(eps_r).ravel()[self.interior]
        data[self.diag_positions] = self.base_diagonal + diagonal
        return sp.csc_matrix((data, self.schur.indices, self.schur.indptr), shape=self.schur.shape)

    # -- the port block (row stacks ``(n_rhs, n)``) ------------------------------
    def serves(self, flat: np.ndarray) -> bool:
        """Whether the port block applies: every row of ``flat`` vanishes off ``I ∪ P``."""
        return not np.any(flat[:, self._off_ports])

    def port_reduce(self, b_interior: np.ndarray, b_ports: np.ndarray) -> np.ndarray:
        """``b_I - A_IE[:, R] W_RP b_P`` for right-hand sides the block :meth:`serves`."""
        return b_interior - (self._a_ie_ring @ (self._w_rp @ b_ports.T)).T

    def port_readout(self, b_ports: np.ndarray, x_interior: np.ndarray) -> np.ndarray:
        """``x_P = W_PP b_P - W_PR (A_EI x_I)_R``."""
        coupled = self._a_ei_ring @ x_interior.T
        return (self._w_pp @ b_ports.T - self._w_pr @ coupled).T

    def fill(self, b_ports: np.ndarray, x_interior: np.ndarray) -> np.ndarray:
        """``x_E = A_EE^{-1} (b_E - A_EI x_I)``: the one back-substitution of a full recovery."""
        b_exterior = -(self.a_ei @ x_interior.T)
        b_exterior[self._port_positions] += b_ports.T
        return self.lu.solve(b_exterior).T


# Exterior keys by the full fingerprint of the permittivity they were derived
# from, so the adjoint solve of a design reuses its forward solve's key
# instead of hashing the exterior values again.  The full fingerprint is
# content, so an in-place edit of the permittivity is a new key.
_EXTERIOR_KEYS = BoundedCache(32)


def _resident_exterior(
    cache, grid: Grid, omega: float, eps_r: np.ndarray, fingerprint: str, region: tuple, ports
) -> tuple[_Exterior, str]:
    """``(exterior, key)``: the cached :class:`_Exterior` of ``eps_r`` outside ``region``.

    The key digests everything the exterior's bytes depend on: the values
    outside the region, the region and the port rows.  Whichever engine
    builds an exterior first, every engine naming the same rows reads it.
    ``fingerprint`` is :func:`eps_fingerprint` of ``eps_r``.
    """
    ports_bytes = np.asarray(ports, dtype=np.int64).tobytes()
    identity = (fingerprint, repr(region), ports_bytes)
    key = _EXTERIOR_KEYS.get(identity)
    if key is None:
        outside = np.ones(eps_r.shape, dtype=bool)
        outside[region] = False
        digest = hashlib.sha1(eps_fingerprint(eps_r[outside]).encode())
        digest.update(repr(region).encode())
        digest.update(ports_bytes)
        key = digest.hexdigest()
        _EXTERIOR_KEYS.put(identity, key)
    exterior = cache.get_or_build(
        grid, omega, key, lambda: _Exterior(grid, omega, eps_r, region, ports), tag="exterior"
    )
    return exterior, key


class RefinementError(RuntimeError):
    """Iterative refinement stopped contracting or cannot reach its tolerance in its sweeps."""


def iterative_refine(
    apply_inverse,
    rhs: np.ndarray,
    rtol: float,
    max_sweeps: int,
    delta: np.ndarray,
    matrix: sp.spmatrix | None = None,
    x0: np.ndarray | None = None,
    b_norms: np.ndarray | None = None,
) -> tuple[np.ndarray, int, int]:
    """Iterative refinement of a flat RHS stack ``(n_rhs, n)`` to ``rtol``.

    The inner loop of :class:`RecycledEngine` on a design region's Schur
    complement.  ``apply_inverse`` is the exact LU of a reference operator
    ``M`` and the target is ``A = M + diag(delta)`` (the diagonal drift
    between Adam iterates), so each sweep is::

        x += M^{-1} r              # correction through the reference LU
        r <- -delta * correction   # matvec-free residual recurrence

    until every ``||r|| <= rtol * max(||b||, tiny)``.  ``b_norms`` are the
    norms the tolerance is relative to, by default those of ``rhs``; a
    reduced system passes the norms of the full right-hand sides, since its
    residual is the full one.  ``apply_inverse`` takes a column matrix
    (``(n, k)``) like ``SuperLU.solve``; the whole active stack sweeps
    together through one multi-RHS call.  ``matrix`` (``A``) is needed only
    to form the starting residual of a warm guess ``x0``.  Returns ``(x,
    sweeps, back_substitutions)``.

    Raises :class:`RefinementError` as soon as any active row fails to
    contract, or its last contraction ``q`` predicts that the sweeps left
    cannot reach the tolerance (``||r|| q^left > tol``), so the caller can
    escalate without spending the rest of the budget.
    """
    flat = np.asarray(rhs, dtype=np.complex128)
    if flat.ndim != 2:
        raise ValueError(f"rhs must be a flat stack (n_rhs, n); got shape {flat.shape}")
    if b_norms is None:
        b_norms = np.linalg.norm(flat, axis=1)
    tol = float(rtol) * np.maximum(b_norms, np.finfo(np.float64).tiny)
    if x0 is None:
        x = np.zeros_like(flat)
        residual = flat.copy()
    else:
        x = np.array(x0, dtype=np.complex128).reshape(flat.shape)
        residual = flat - (matrix @ x.T).T
    norms = np.linalg.norm(residual, axis=1)
    sweeps = 0
    back_substitutions = 0
    while True:
        active = norms > tol
        if not active.any():
            return x, sweeps, back_substitutions
        if sweeps >= max_sweeps:
            raise RefinementError(f"refinement has no sweeps left to reach rtol={rtol}")
        # A slice keeps the all-active sweep free of fancy-index copies.
        rows = slice(None) if active.all() else active
        correction = np.asarray(apply_inverse(residual[rows].T)).T
        x[rows] += correction
        new_residual = -delta[None, :] * correction
        new_norms = np.linalg.norm(new_residual, axis=1)
        contraction = new_norms / norms[rows]
        if np.any(contraction >= 1.0):
            raise RefinementError(
                f"refinement stopped contracting (residual {float(new_norms.max()):.3e}); "
                "the factorization does not precondition this operator"
            )
        sweeps += 1
        predicted = new_norms * contraction ** (max_sweeps - sweeps)
        if np.any(predicted > tol[rows]):
            raise RefinementError(
                f"refinement cannot reach rtol={rtol} in {max_sweeps} sweeps (contraction "
                f"{float(contraction.max()):.3f} per sweep after {sweeps})"
            )
        residual[rows] = new_residual
        norms[rows] = new_norms
        back_substitutions += int(active.sum())


# --------------------------------------------------------------------------- #
# engines
# --------------------------------------------------------------------------- #
_FIDELITY_TOKENS = itertools.count()


class SolverEngine:
    """Interface of a fidelity tier: batched linear solves of ``A(eps) x = b``.

    ``solve_batch`` receives the *full* right-hand side stack (any ``i omega``
    source scaling is the caller's business), so the same call serves forward
    solves (``b = i omega J``), adjoint solves (``b = dF/dEz``) and
    normalization runs.  Adjoint solves reuse ``A`` for ``A^T``: with
    ``A^T = D A D^{-1}``, ``D`` the PML stretching (1 outside the PML), an
    adjoint field of a source outside the PML is exact outside the PML only.
    Gradients on the design region are exact.

    Examples
    --------
    Engines are usually selected by registry name at a call site::

        sim = Simulation(grid, eps_r, wavelength, ports, engine="direct")
        problem = InverseDesignProblem(device, engine="recycled")
        config = GeneratorConfig(engine={"low": "neural:model.npz", "*": "direct"})

    or driven directly — one factorization, many right-hand sides::

        engine = make_engine("direct")
        fields = engine.solve_batch(grid, omega, eps_r, rhs_stack)  # (n, nx, ny)

    A new backend becomes a registry-wide fidelity tier in one call::

        register_engine("mytier", MyEngine)   # Simulation(engine="mytier") works
    """

    name: str = "abstract"

    #: Whether ``solve_batch``'s ``x0`` initial guesses can speed this engine
    #: up.  Callers use it to decide whether threading a
    #: :class:`SolveWorkspace` through their solves is worth the bookkeeping.
    supports_warm_start: bool = False

    #: The region ``I`` (a device's ``design_slice``) the engine condenses
    #: onto.  An engine with one takes ``port_rows`` (the grid rows ``P`` a
    #: caller reads) in ``solve_batch``; a solve that passes them and whose
    #: right-hand sides all vanish off ``I ∪ P`` condenses and may return a
    #: :class:`~repro.fdfd.lazy.Deferred` stack, and every other solve is
    #: one exact full-grid solve.
    design_region: tuple[slice, slice] | None = None

    @property
    def fidelity_signature(self) -> tuple:
        """Hashable token identifying everything that shapes this engine's results.

        Result caches (e.g. the process-wide normalization cache) key on this:
        engines with equal signatures may share solve *results*.  The default
        is per-instance (a monotonic token — never recycled, unlike ``id()``),
        which is always safe; engines whose results are fully determined by
        their parameters override it so equivalent instances share.
        """
        token = getattr(self, "_fidelity_token", None)
        if token is None:
            token = self._fidelity_token = next(_FIDELITY_TOKENS)
        return (self.name, token)

    def solve_batch(
        self,
        grid: Grid,
        omega: float,
        eps_r: np.ndarray,
        rhs: np.ndarray,
        fingerprint: str | None = None,
        x0: np.ndarray | None = None,
    ) -> np.ndarray:
        """Solve ``A(eps_r) x = b`` for a stack of right-hand sides.

        Parameters
        ----------
        grid, omega:
            Discretization and angular frequency defining the operator.
        eps_r:
            Grid-shaped relative permittivity (real or complex).
        rhs:
            Right-hand sides, shape ``(n_rhs, nx, ny)`` (complex).
        fingerprint:
            Pre-computed :func:`eps_fingerprint` of ``eps_r``; computed on the
            fly when omitted.  Callers that mutate permittivities in place are
            responsible for passing an up-to-date fingerprint.
        x0:
            Optional stack of initial guesses (same shape as ``rhs``) for
            engines with ``supports_warm_start``; exact engines ignore it.
            Guesses influence convergence speed only, never the solution.

        Returns
        -------
        np.ndarray
            Solution stack of the same shape as ``rhs``.
        """
        raise NotImplementedError

    # -- shared plumbing --------------------------------------------------------
    @staticmethod
    def _check_batch(grid: Grid, eps_r: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        eps_r = np.asarray(eps_r)
        if eps_r.shape != grid.shape:
            raise ValueError(f"eps_r shape {eps_r.shape} does not match grid {grid.shape}")
        rhs = np.asarray(rhs, dtype=complex)
        if rhs.ndim != 3 or rhs.shape[1:] != grid.shape:
            raise ValueError(
                f"rhs must be a stack shaped (n, {grid.nx}, {grid.ny}); got {rhs.shape}"
            )
        return eps_r, rhs


class DirectEngine(SolverEngine):
    """Exact sparse direct solves (SuperLU), factorize-once / solve-many.

    All right-hand sides of a batch are solved in a single
    ``lu.solve`` call on a 2-D RHS matrix, and the factorization itself is
    shared across batches (and across engine instances using the same cache).

    With a ``design_region`` (a device's ``design_slice``), a solve is
    *condensed* when it passes ``port_rows`` and every right-hand side
    vanishes off ``I ∪ P`` (the region and the port rows): it is then an
    exact hit of the :class:`RecycledEngine` region path.  The exterior is
    factored once per ``(grid, omega, exterior permittivity, port rows)``
    with its port block (tag ``"exterior"``, see :class:`_Exterior`), shared
    with any recycled engine naming the same rows, and each design factors
    only its Schur complement ``S`` on the region (tag ``"condensed:<exterior
    key>"``, so engines with different regions never share one).  A
    condensed solve costs a port reduce, one back-substitution through ``S``
    and a port readout; the result is a :class:`~repro.fdfd.lazy.Deferred`
    stack whose one exterior back-substitution runs when a caller reads the
    full field.  Labels read the forward field in full, and the adjoint
    gradient only on the region, so a labelled design back-substitutes
    through the exterior once.  Every other solve (the normalization runs,
    which pass no ``port_rows``, or a right-hand side off ``I ∪ P``) is one
    full-grid solve through the cached :meth:`factorize` (tag ``"direct"``).
    Every path is exact.  The rule reads the call, never the process's
    history, so serial, pooled and resumed label runs agree byte for byte.
    """

    name = "direct"

    def __init__(
        self,
        cache: FactorizationCache | None = None,
        design_region: tuple[slice, slice] | None = None,
    ):
        self.cache = cache if cache is not None else default_factorization_cache
        self.design_region = design_region

    @property
    def fidelity_signature(self) -> tuple:
        # Exact solves: results depend only on the operator, so every
        # direct engine (full or condensed) may share cached results.
        # Recycled solves are only rtol-converged and carry their own
        # signature.
        return ("exact",)

    def factorize(self, grid: Grid, omega: float, eps_r: np.ndarray, fingerprint=None):
        """The full-grid SuperLU factorization of ``A(eps_r)``, shared through the cache."""
        if fingerprint is None:
            fingerprint = eps_fingerprint(eps_r)
        return self.cache.get_or_build(
            grid,
            omega,
            fingerprint,
            lambda: factor_lu(assemble_system_matrix(grid, omega, eps_r)),
            tag="direct",
        )

    def solve_batch(self, grid, omega, eps_r, rhs, fingerprint=None, x0=None, port_rows=None):
        eps_r, rhs = self._check_batch(grid, eps_r, rhs)
        # Exact solves have nothing to gain from an initial guess; x0 is
        # accepted (and ignored) so call sites can thread warm starts
        # engine-agnostically.
        if fingerprint is None:
            fingerprint = eps_fingerprint(eps_r)
        flat = rhs.reshape(rhs.shape[0], -1)
        frame = _port_frame(self, grid, omega, eps_r, fingerprint, flat, port_rows)
        if frame is None:
            # One back-substitution on an (n_points, n_rhs) matrix.
            solutions = self.factorize(grid, omega, eps_r, fingerprint).solve(flat.T)
            return np.ascontiguousarray(solutions.T).reshape(rhs.shape)
        reduced, back = frame.reduce(flat)
        lu = self.cache.get_or_build(
            grid, frame.omega, fingerprint, lambda: frame.factor(eps_r),
            tag=f"condensed:{frame.exterior_key}",
        )
        return back(lu.solve(reduced.T).T)


@dataclass
class RecycleStats(StatsCounters):
    """What a :class:`RecycledEngine` actually did, for tests and benchmarks.

    ``krylov_iterations`` keeps its historical name but counts the
    back-substitutions of converged refinements (one per right-hand side
    per sweep); ``fallbacks`` counts recycled solves whose refinement failed
    and that refactorized instead.
    """

    factorizations: int = 0
    exact_solves: int = 0
    recycled_solves: int = 0
    krylov_iterations: int = 0
    fallbacks: int = 0


class _RecycledReference:
    """A frozen permittivity snapshot with its own exact LU, which preconditions nearby solves."""

    __slots__ = ("eps", "eps_norm", "lu", "last_iterations")

    def __init__(self, eps: np.ndarray, lu):
        self.eps = np.array(eps, copy=True)
        self.eps_norm = float(np.linalg.norm(self.eps.ravel()))
        self.lu = lu
        self.last_iterations = 0.0


class _Frame:
    """A condensed solve's unknowns: the design region's ``S`` over a resident exterior.

    The recycling loop sees a reference LU, the current matrix and the
    diagonal drift, all on the region: between reduce and recovery it
    factors, refines and iterates on the Schur complement of the design
    region only, and a :class:`DirectEngine` factors that ``S`` once per
    design.  Stacks are rows, ``(n_rhs, n)``.
    """

    __slots__ = ("grid", "omega", "exterior", "exterior_key", "key")

    def __init__(self, grid: Grid, omega: float, exterior: _Exterior, exterior_key: str):
        self.grid = grid
        self.omega = omega
        self.exterior = exterior
        self.exterior_key = exterior_key
        self.key = (grid, omega, exterior_key)

    def restrict(self, values: np.ndarray) -> np.ndarray:
        """The region's unknowns of grid-flat values (last axis)."""
        return values[..., self.exterior.interior]

    def factor(self, eps_r: np.ndarray):
        # The exterior numbers S in its fill-reducing order already: no
        # ordering step, unless the natural-order factor fails its probe.
        schur = self.exterior.schur_complement(self.omega, eps_r)
        lu = _probed_splu(schur, _NATURAL_LU)
        return lu if lu is not None else factor_lu(schur)

    def reduce(self, flat: np.ndarray):
        """The region's right-hand sides, and the map from its solutions to grid-shaped stacks.

        Solutions map to a :class:`Deferred` stack, computed on ``I ∪ P``
        (NaN elsewhere) and fully recovered on first request.
        """
        exterior = self.exterior
        b_ports = flat[:, exterior.ports]
        reduced = exterior.port_reduce(flat[:, exterior.interior], b_ports)
        return reduced, lambda x: self._port_stack(b_ports, x)

    def _port_stack(self, b_ports: np.ndarray, x: np.ndarray) -> Deferred:
        exterior = self.exterior
        flat = np.full((x.shape[0], self.grid.n_points), np.nan, dtype=complex)
        flat[:, exterior.interior] = x
        readout = flat[:, exterior.ports] = exterior.port_readout(b_ports, x)
        stack = flat.reshape(x.shape[0], *self.grid.shape)

        def recover():
            # The fill agrees with the readout only to roundoff: keep the port
            # rows callers may already have read, so no value depends on
            # whether the field was read in full first.
            flat[:, exterior.exterior] = exterior.fill(b_ports, x)
            flat[:, exterior.ports] = readout
            return stack

        return Deferred(stack, recover)


def _port_frame(
    engine: SolverEngine,
    grid: Grid,
    omega: float,
    eps_r: np.ndarray,
    fingerprint: str,
    flat: np.ndarray,
    port_rows,
) -> _Frame | None:
    """The frame of a solve that condenses, or None for a full-grid solve.

    The one condensing rule of both exact engines: a solve on an engine
    with a ``design_region`` condenses when it names ``port_rows`` and every
    right-hand side (a row of ``flat``) vanishes off ``I ∪ P``.
    """
    if engine.design_region is None or port_rows is None:
        return None
    omega = float(omega)
    exterior, key = _resident_exterior(
        engine.cache, grid, omega, eps_r, fingerprint, engine.design_region, port_rows
    )
    return _Frame(grid, omega, exterior, key) if exterior.serves(flat) else None


# The recycling policy of :class:`RecycledEngine`.
#: Refinement sweeps one recycled solve may spend before it refactorizes.
_MAX_SWEEPS = 16
#: Relative L2 drift from the nearest reference beyond which a solve refactorizes.
_DRIFT_THRESHOLD = 0.1
#: A reference whose last recycled solve took more sweeps is not recycled again.
_MAX_REFERENCE_SWEEPS = 6
#: References, each owning its LU, kept per exterior and frequency.
_MAX_REFERENCES = 4


class RecycledEngine(SolverEngine):
    """Exact LUs recycled across nearby operators by iterative refinement.

    The optimization-loop tier.  Every Adam step of an inverse-design run
    changes ``eps_r``, so content-keyed factorization caching never hits and
    each iteration would pay a fresh SuperLU factorization.  But consecutive
    operators differ only on the diagonal (``A(eps + d) = A(eps) +
    omega^2 eps0 diag(d)``), which makes the *previous* factorization an
    excellent preconditioner.  A recycled solve runs

    1. diagonal-update iterative refinement (:func:`iterative_refine`) —
       each sweep is one back-substitution against the reference LU plus an
       elementwise product (the diagonal structure of the perturbation makes
       the residual recurrence matvec-free), vectorized over the RHS stack;
    2. refactorization at the current permittivity when refinement stalls
       or its contraction predicts it cannot reach ``rtol`` within
       :data:`_MAX_SWEEPS` — so results are always converged to ``rtol`` relative
       residual, or exact.  The refactorized design becomes a reference, so
       its adjoint solve is an exact hit.

    The engine recycles on a device's ``design_region`` only
    (``InverseDesignProblem`` passes its ``design_slice`` for
    ``engine="recycled"``; elsewhere build it with
    ``resolve_engine("recycled", design_region=device.geometry.design_slice)``).
    A solve condenses when it passes ``port_rows`` (the rows port
    measurements and objectives read) and every right-hand side vanishes off
    ``I ∪ P`` (the region and the port rows): the exterior is factored once
    (tag ``"exterior"``) with a port block for those rows (see
    :class:`_Exterior`), reduce and port readout are products with that
    block, and the loop runs on the region's Schur complement ``S``.  The
    result is a :class:`~repro.fdfd.lazy.Deferred` stack, exact on ``I ∪ P``
    and NaN elsewhere, whose one exterior back-substitution runs when a
    caller reads the full field; the full residual equals the reduced one,
    so the contract above holds on the full system.

    Per ``(grid, omega, exterior)`` the engine keeps a
    :class:`~repro.utils.cache.BoundedCache` of at most
    :data:`_MAX_REFERENCES` references, each a permittivity snapshot that
    owns its LU, so dropping a reference drops its LU.  A condensed solve

    * whose fingerprint matches a reference exactly is a pure (exact)
      back-substitution,
    * whose nearest reference is within :data:`_DRIFT_THRESHOLD` (relative
      L2 ``||eps - eps_ref|| / ||eps_ref||``) and whose last recycled solve
      took at most :data:`_MAX_REFERENCE_SWEEPS` refinement sweeps (a sweep
      costs one back-substitution per right-hand side, so this trades
      per-solve sweeps against refactorization frequency) is recycled,
    * otherwise triggers a refactorization: the current permittivity becomes a
      new reference and the batch is solved exactly against its fresh LU.

    Every other solve (a normalization run, which passes no ``port_rows``,
    or a right-hand side off ``I ∪ P``) is one exact full-grid solve that
    keeps nothing.

    A recycled solve that fails to converge falls back to refactorization, so
    results are always converged to ``rtol`` (or exact).  Warm starts
    (``x0``, threaded from a :class:`SolveWorkspace`) cut the iteration count
    further.  The shared ``cache`` holds only the engine's exteriors; the
    reference LUs (at most :data:`_MAX_REFERENCES` per exterior and
    frequency) live and die with their references.
    """

    name = "recycled"
    supports_warm_start = True

    def __init__(
        self,
        rtol: float = 1e-6,
        cache: FactorizationCache | None = None,
        design_region: tuple[slice, slice] | None = None,
    ):
        if design_region is None:
            raise ValueError(
                "RecycledEngine recycles on a design region and needs design_region: "
                "build it with resolve_engine(name, design_region=device.geometry."
                "design_slice), or solve without a region on the exact 'direct' engine"
            )
        self.rtol = float(rtol)
        self.cache = cache if cache is not None else default_factorization_cache
        self.design_region = design_region
        self._references: dict[tuple, BoundedCache] = {}
        self.stats = RecycleStats()

    @property
    def fidelity_signature(self) -> tuple:
        # Recycled solves are exact on reference hits but rtol-converged in
        # between; identically-configured recycled engines may share results.
        return (self.name, self.rtol)

    # -- reference bookkeeping --------------------------------------------------
    @staticmethod
    def _nearest_reference(
        references: BoundedCache, eps_r: np.ndarray
    ) -> tuple[_RecycledReference | None, float]:
        best, best_drift = None, float("inf")
        flat = eps_r.ravel()
        # A snapshot: scanning must not refresh the references it passes.
        for reference in references.values():
            drift = float(np.linalg.norm(flat - reference.eps.ravel()))
            drift /= max(reference.eps_norm, 1e-300)
            if drift < best_drift:
                best, best_drift = reference, drift
        return best, best_drift

    @staticmethod
    def _reference_solve(reference: _RecycledReference, rhs: np.ndarray) -> np.ndarray:
        """Solve at the reference permittivity itself: one exact back-substitution."""
        return reference.lu.solve(rhs.T).T

    def _refactorize(
        self,
        references: BoundedCache,
        frame: _Frame,
        eps_r: np.ndarray,
        fingerprint: str,
        rhs: np.ndarray,
    ) -> np.ndarray:
        self.stats.factorizations += 1
        reference = _RecycledReference(eps_r, frame.factor(eps_r))
        references.put(fingerprint, reference)  # the LRU reference leaves with its LU
        return self._reference_solve(reference, rhs)

    # -- the solve ---------------------------------------------------------------
    def solve_batch(self, grid, omega, eps_r, rhs, fingerprint=None, x0=None, port_rows=None):
        eps_r, rhs = self._check_batch(grid, eps_r, rhs)
        if fingerprint is None:
            fingerprint = eps_fingerprint(eps_r)
        full_rhs = rhs.reshape(rhs.shape[0], -1)
        frame = _port_frame(self, grid, omega, eps_r, fingerprint, full_rhs, port_rows)
        if frame is None:
            # Off the port path: one exact full-grid solve that keeps nothing
            # (a normalization run is cached by cross-section instead).
            self.stats.factorizations += 1
            lu = factor_lu(assemble_system_matrix(grid, float(omega), eps_r))
            return np.ascontiguousarray(lu.solve(full_rhs.T).T).reshape(rhs.shape)
        reduced, back = frame.reduce(full_rhs)
        if x0 is not None:
            x0 = frame.restrict(np.asarray(x0, dtype=complex).reshape(full_rhs.shape))
        return back(self._solve_reduced(frame, eps_r, fingerprint, reduced, full_rhs, x0))

    def _solve_reduced(self, frame, eps_r, fingerprint, rhs, full_rhs, x0) -> np.ndarray:
        """Reference hit, recycled solve or refactorization, in the frame's unknowns."""
        references = self._references.setdefault(frame.key, BoundedCache(_MAX_REFERENCES))

        reference = references.get(fingerprint)
        if reference is not None:
            # Exact fingerprint match (e.g. the unchanged normalization
            # waveguide): a pure back-substitution, exact like DirectEngine.
            self.stats.exact_solves += 1
            return self._reference_solve(reference, rhs)

        reference, drift = self._nearest_reference(references, eps_r)
        if (
            reference is None
            or drift > _DRIFT_THRESHOLD
            or reference.last_iterations > _MAX_REFERENCE_SWEEPS
        ):
            return self._refactorize(references, frame, eps_r, fingerprint, rhs)

        # A = A_ref + diag(delta), delta = omega^2 eps0 (eps - eps_ref): refinement
        # against the exact reference LU converges linearly at rate
        # rho(A_ref^{-1} diag(delta)).  On the region these are S, S_ref and the
        # drift inside it (the exterior is shared, so S - S_ref is that diagonal).
        delta = (frame.omega**2 * EPSILON_0 * (eps_r - reference.eps).ravel()).astype(complex)
        try:
            solutions, sweeps, back_substitutions = iterative_refine(
                reference.lu.solve,
                rhs,
                self.rtol,
                _MAX_SWEEPS,
                frame.restrict(delta),
                matrix=None if x0 is None else frame.exterior.schur_complement(frame.omega, eps_r),
                x0=x0,
                b_norms=np.linalg.norm(full_rhs, axis=1),
            )
        except RefinementError:
            # The reference no longer preconditions well.  Refactorize at the
            # current permittivity — the result stays exact.
            self.stats.fallbacks += 1
            reference.last_iterations = float("inf")
            return self._refactorize(references, frame, eps_r, fingerprint, rhs)
        reference.last_iterations = sweeps
        self.stats.krylov_iterations += back_substitutions
        self.stats.recycled_solves += 1
        return solutions


class CountingEngine(SolverEngine):
    """Test/diagnostic wrapper that records every solve going through it.

    ``factorizations`` maps permittivity fingerprints to the number of times
    the inner engine actually built a factorization for them;
    ``solve_log`` records ``(fingerprint, n_rhs)`` per ``solve_batch`` call.
    Used by the test-suite to prove factorize-once behaviour end to end.
    """

    name = "counting"

    def __init__(self, inner: SolverEngine | None = None):
        self.inner = inner if inner is not None else DirectEngine(cache=FactorizationCache())
        self.solve_log: list[tuple[str, int]] = []
        self.factorizations: dict[str, int] = {}

    @property
    def supports_warm_start(self) -> bool:
        return self.inner.supports_warm_start

    @property
    def fidelity_signature(self) -> tuple:
        # Per-instance on purpose: counting wrappers exist to observe their
        # own solves, so the process-wide normalization cache must never
        # serve a hit recorded through a *different* wrapper (or none) as
        # this one's.
        token = getattr(self, "_fidelity_token", None)
        if token is None:
            token = self._fidelity_token = next(_FIDELITY_TOKENS)
        return ("counting", token, *self.inner.fidelity_signature)

    def solve_batch(self, grid, omega, eps_r, rhs, fingerprint=None, x0=None):
        if fingerprint is None:
            fingerprint = eps_fingerprint(eps_r)
        rhs = np.asarray(rhs, dtype=complex)
        self.solve_log.append((fingerprint, rhs.shape[0]))
        cache = getattr(self.inner, "cache", None)
        misses_before = cache.stats.misses if cache is not None else 0
        result = self.inner.solve_batch(grid, omega, eps_r, rhs, fingerprint=fingerprint, x0=x0)
        if cache is not None and cache.stats.misses > misses_before:
            self.factorizations[fingerprint] = self.factorizations.get(fingerprint, 0) + 1
        return result


# --------------------------------------------------------------------------- #
# registry
# --------------------------------------------------------------------------- #
_ENGINE_FACTORIES: dict[str, object] = {}


def register_engine(name: str, factory) -> None:
    """Register an engine factory under a name (used by ``make_engine``)."""
    _ENGINE_FACTORIES[name.lower().strip()] = factory


def available_engines() -> list[str]:
    """Names accepted by :func:`make_engine` / ``Simulation(engine=...)``."""
    return sorted(_ENGINE_FACTORIES)


def split_engine_name(name: str) -> tuple[str, str | None]:
    """Split an engine name into ``(registry key, optional ':<spec>' suffix)``.

    ``"neural:model.npz"`` selects the ``"neural"`` factory with the
    checkpoint path ``"model.npz"``.  The base name is normalized the way the
    registry normalizes names; the suffix keeps its case (it is usually a
    filesystem path).
    """
    base, sep, spec = name.strip().partition(":")
    return base.lower().strip(), (spec.strip() if sep else None)


def load_engine_tiers() -> None:
    """Import every optional package that registers engine tiers.

    The surrogate package registers the "neural" tier on import, the service
    package the "service" tier and the time-domain package the "fdtd" tier;
    importing them lazily keeps plain FDFD users from paying for (or
    depending on) those stacks.  :func:`make_engine` calls this before
    reporting an unknown name, so its error message lists every tier that
    actually exists; config validators (e.g. the dataset generator) call it
    before checking names against :func:`available_engines`.
    """
    for module in (
        "repro.surrogate.neural_solver",
        "repro.service.solve_service",
        "repro.fdtd.engine",
    ):
        try:
            __import__(module)
        except ImportError:  # pragma: no cover - optional stack unavailable
            pass


def make_engine(name: str, **kwargs) -> SolverEngine:
    """Instantiate a solver engine by name.

    ``"direct"``/``"superlu"``/``"high"`` build the exact
    :class:`DirectEngine`, ``"recycled"`` the optimization-loop
    :class:`RecycledEngine`, ``"fdtd"`` the time-domain tier (registered when
    :mod:`repro.fdtd` is imported), and ``"neural"`` the surrogate engine
    (requires ``model=...``; registered when :mod:`repro.surrogate` is
    imported).  ``"neural:<checkpoint.npz>"`` loads a promoted surrogate
    checkpoint — the name form that lets the AI tier travel through configs
    and process boundaries.
    """
    key, spec = split_engine_name(name)
    if key not in _ENGINE_FACTORIES:
        load_engine_tiers()
    if key not in _ENGINE_FACTORIES:
        raise ValueError(f"unknown engine {name!r}; available: {available_engines()}")
    factory = _ENGINE_FACTORIES[key]
    if spec is not None:
        if not spec:
            raise ValueError(f"empty ':<spec>' suffix in engine name {name!r}")
        # Only factories with an explicit ``checkpoint`` parameter are
        # suffix-capable; probing the signature (instead of catching
        # TypeError around the call) keeps real errors from checkpoint
        # loading — bad paths, version-skewed kwargs — intact.
        try:
            parameters = inspect.signature(factory).parameters
        except (TypeError, ValueError):  # pragma: no cover - builtin factory
            parameters = {}
        if "checkpoint" not in parameters:
            raise ValueError(
                f"engine {key!r} does not accept a ':<checkpoint>' suffix "
                f"(got {name!r}); only the 'neural' tier is checkpoint-backed"
            )
        return factory(checkpoint=spec, **kwargs)
    return factory(**kwargs)


def resolve_engine(engine: SolverEngine | str | None, design_region=None, **kwargs) -> SolverEngine:
    """Normalize an engine argument: instance, registry name or None (direct).

    ``design_region`` (a device's ``design_slice``) goes to None and to the
    registry names of :class:`DirectEngine` and :class:`RecycledEngine`,
    which condense their port solves onto it; other names and every engine
    instance are used as given.  Objects exposing ``as_engine()`` (e.g.
    :class:`~repro.service.SolveService`) are accepted too, so a configured
    service drops in anywhere an engine does: ``Simulation(engine=my_service)``.
    """
    if engine is None:
        engine = "direct"
    if isinstance(engine, str):
        key, spec = split_engine_name(engine)
        if spec is None and _ENGINE_FACTORIES.get(key) in (DirectEngine, RecycledEngine):
            kwargs["design_region"] = design_region
        return make_engine(engine, **kwargs)
    if isinstance(engine, SolverEngine):
        return engine
    as_engine = getattr(engine, "as_engine", None)
    if callable(as_engine):
        candidate = as_engine()
        if isinstance(candidate, SolverEngine):
            return candidate
    raise TypeError(f"engine must be a SolverEngine, a name or None; got {type(engine)!r}")


register_engine("direct", DirectEngine)
register_engine("superlu", DirectEngine)
register_engine("high", DirectEngine)
register_engine("recycled", RecycledEngine)
