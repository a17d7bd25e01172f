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
  design region, it factors the fixed exterior once and each design only
  on the region (the Schur complement), which is how labels are made.
* :class:`RecycledEngine` — the optimization-loop tier: keeps the exact LU of
  a *reference* permittivity and solves nearby permittivities (consecutive
  Adam iterates differ only on the operator diagonal) by iterative
  refinement against that LU, then LU-preconditioned BiCGStab, refactorizing
  only when the design drifts too far or the iteration counts creep up.
  Given a device's design region, the same loop runs on the region's Schur
  complement against an exterior that stays resident.
* ``"neural"`` — a trained surrogate registered by
  :mod:`repro.surrogate.neural_solver` (see :class:`NeuralEngine` there).
* ``"service"`` — the coalescing async front-end registered by
  :mod:`repro.service.solve_service`: requests from concurrent call sites
  are micro-batched into single ``solve_batch`` calls on a backing tier.

Every LU a tier builds is an exact complex128 SuperLU factor from
:func:`factor_lu`.  Fidelity in the MAPS sense is a device's grid step, not
an approximate solver.

Engines are stateless with respect to the problem: all per-operator state
lives in the process-wide :class:`FactorizationCache`, keyed by the grid, the
angular frequency and a cheap content fingerprint of the permittivity
(:func:`eps_fingerprint`).  The cache is what lets independent call sites —
a ``Simulation``, its normalization run, ``evaluate_spec``'s adjoint solve,
the dataset generator — share one LU decomposition without coordinating.

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
from collections import OrderedDict
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
    "selects_direct",
    "selects_recycled",
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
    path used by :class:`RecycledEngine`, whose optimization-loop solves see a
    new diagonal every iteration but an otherwise identical operator.
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
    #: In-memory misses that a cross-process store satisfied / failed to.
    store_hits: int = 0
    store_misses: int = 0
    #: Estimated bytes held by the entries currently cached.
    current_bytes: int = 0

    @property
    def factorizations(self) -> int:
        # An in-memory miss satisfied by the store maps an existing artifact
        # instead of building a factorization.
        return self.misses - self.store_hits

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "store_hits": self.store_hits,
            "store_misses": self.store_misses,
            "current_bytes": self.current_bytes,
            "factorizations": self.factorizations,
        }


def _entry_nbytes(entry) -> int:
    """Best-effort byte estimate of a cached factorization.

    Entries declaring ``nbytes`` (store artifacts) are exact; SuperLU/ILU
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
    engine stores for that operator (a SuperLU object for the direct and
    recycled engines, a condensed LU or a factored exterior for the direct
    engine's design-region solves).  The cache is deliberately
    engine-agnostic: entries are namespaced by a ``tag`` so every engine's
    factorizations of the same operator coexist.

    Factored exteriors (tag ``"exterior"``, keyed by the exterior's digest)
    are built once per device and frequency and serve every design after
    that, so they live in a second LRU of the same ``maxsize``: churn among
    per-design entries (``"direct"``, ``"condensed"``, the recycled tier's
    references) can never evict an exterior.

    Most code never touches the cache directly — engines share
    :data:`default_factorization_cache` unless given their own.  Direct use
    looks like::

        cache = FactorizationCache(maxsize=4)
        lu = cache.get_or_build(grid, omega, eps_fingerprint(eps_r),
                                build=lambda: factor_lu(A), tag="direct")
        cache.stats.hits, cache.stats.misses   # factorize-once, solve-many
        cache.evict(grid, omega, fingerprint)  # e.g. after in-place eps edits

    The cache is safe to share between threads: a lock guards the LRU
    bookkeeping, while builds (and store round-trips) deliberately run
    *outside* it so a slow factorization never serializes unrelated
    operators.  Two threads racing one cold key may therefore both build —
    last insert wins; both entries solve the same operator.  (Collapsing
    that duplicated work is what :class:`~repro.service.SolveService`
    request coalescing is for.)

    Cross-process fall-through: a cache may carry a
    :class:`~repro.service.FileFactorizationStore` (the ``store``
    constructor argument, :meth:`attach_store`, or process-wide via
    ``REPRO_FACTORIZATION_STORE=<dir>``).  An in-memory miss then tries the
    store before building — mapping a persisted artifact instead of
    refactorizing — and a fresh build is published back, so factorizations
    survive process death and are shared across worker pools.
    """

    def __init__(self, maxsize: int | None = None, store=None):
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
        self._store = store
        self._env_store = None

    @staticmethod
    def _key(grid: Grid, omega: float, fingerprint: str, tag: str) -> tuple:
        return (grid, float(omega), fingerprint, tag)

    def _table(self, key: tuple) -> BoundedCache:
        return self._exteriors if key[3] == "exterior" else self._entries

    # -- cross-process store plumbing -------------------------------------------
    def attach_store(self, store):
        """Attach (or with ``None``, detach) a cross-process store.

        Returns the previously attached store (``None`` when there was none),
        so a temporary attachment can be undone.
        """
        with self._lock:
            previous, self._store = self._store, store
            self._env_store = None
            return previous

    @property
    def store(self):
        """The attached store, resolving ``REPRO_FACTORIZATION_STORE`` lazily.

        An explicitly attached store wins; otherwise a non-empty env var
        names a directory and a :class:`FileFactorizationStore` over it is
        created on first use (and re-created if the variable changes — cheap,
        the store object holds no open handles).
        """
        with self._lock:
            if self._store is not None:
                return self._store
            path = os.environ.get("REPRO_FACTORIZATION_STORE", "")
            if not path:
                self._env_store = None
                return None
            if self._env_store is None or str(self._env_store.directory) != path:
                from repro.service.cache_store import FileFactorizationStore

                self._env_store = FileFactorizationStore(path)
            return self._env_store

    def get_or_build(
        self,
        grid: Grid,
        omega: float,
        fingerprint: str,
        build,
        tag: str = "direct",
        store_payload=None,
    ):
        """Return the cached entry for the key, building it on a miss.

        On an in-memory miss the attached store (if any) is consulted first;
        only a store miss runs ``build``, whose result is then published back.
        ``store_payload`` (a dict of named arrays, or a zero-argument callable
        returning one — only invoked when a publish actually happens) rides
        along in the published artifact; the recycled tier uses it to persist
        reference permittivities next to their LUs.
        """
        key = self._key(grid, omega, fingerprint, tag)
        with self._lock:
            cached = self._table(key).get(key)
            if cached is not None:
                self.stats.hits += 1
                return cached[0]
            self.stats.misses += 1
        store = self.store
        entry = None
        if store is not None:
            entry = store.load(grid, omega, fingerprint, tag)
            with self._lock:
                if entry is not None:
                    self.stats.store_hits += 1
                else:
                    self.stats.store_misses += 1
        if entry is None:
            entry = build()
            if store is not None:
                extras = store_payload() if callable(store_payload) else store_payload
                store.publish(grid, omega, fingerprint, tag, entry, extras=extras)
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

    def evict(self, grid: Grid, omega: float, fingerprint: str, tag: str | None = None) -> int:
        """Drop entries for one operator (all tags unless one is given)."""
        with self._lock:
            if tag is not None:
                keys = [self._key(grid, omega, fingerprint, tag)]
            else:
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
    """Cross-iteration store of fields reused as Krylov initial guesses.

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
#: SuperLU settings tried in order by :func:`factor_lu`.  The FDFD operator
#: is structurally (and, up to PML scaling, numerically) complex symmetric, so
#: a minimum-degree ordering of ``A + A^T`` with diagonal pivots keeps ~44%
#: fewer L+U entries than the default COLAMD with partial pivoting.  The
#: default is the fallback for the rare operator whose pivot-free factor is
#: inaccurate.
_LU_SETTINGS = (
    dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0, options={"SymmetricMode": True}),
    {},
)

#: Largest relative probe residual ``|A x - b| / |b|`` a symmetric-mode
#: factor may leave.  The worst case measured over the device zoo (both
#: fidelities, binary and random designs) is ~5e-13.
_LU_PROBE_BOUND = 1e-10


def factor_lu(matrix: sp.spmatrix) -> spla.SuperLU:
    """SuperLU factorization of an FDFD operator: symmetric mode, then default.

    The symmetric-mode factor is checked by one probe solve (``b = 1``); a
    non-finite or too-large relative residual (see :data:`_LU_PROBE_BOUND`)
    refactors with SuperLU's default partial pivoting, whose factor is
    returned as is.  Every LU factorization in the package goes through here.
    """
    matrix = matrix.tocsc()
    probe = np.ones(matrix.shape[0], dtype=matrix.dtype)
    for settings in _LU_SETTINGS:
        lu = spla.splu(matrix, **settings)
        residual = np.linalg.norm(matrix @ lu.solve(probe) - probe) / np.linalg.norm(probe)
        if residual <= _LU_PROBE_BOUND:  # False for NaN/inf
            break
    return lu


# --------------------------------------------------------------------------- #
# design-region condensation: the fixed exterior factored once per device
# --------------------------------------------------------------------------- #
#: Columns of ``A_EE^{-1} A_EI`` (and of ``A_EE^{-1}`` on the tail, for a
#: port block) back-substituted at a time when an exterior is built without
#: its ring-last factor.  Only their tail rows are kept, so the transient is
#: one ``(n_E, 32)`` block (~4 MB on a 104^2 grid), not the full ``(n_E, k)``.
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


def _ring_rows(
    a_ee: sp.csc_matrix,
    lu,
    ring: np.ndarray,
    coupling: sp.csc_matrix,
    ports: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """``(A_EE^{-1} coupling)[ring]`` for coupling columns supported on the ring, and the tail block.

    Refactoring ``A_EE`` with the tail ``T`` (the ring, then the ``ports``
    not on it) ordered after every other cell (those in ``lu``'s
    fill-reducing order) makes the trailing ``t x t`` block ``L22 U22`` of
    the new factor the Schur complement of ``A_EE`` onto ``T``, whose
    inverse is ``(A_EE^{-1})[T, T]``.  One factorization and one dense
    ``t x t`` solve then replace ``k`` back-substitutions through the
    exterior (on a 104^2 grid, 2-CPU host: ~60 ms against ~150 ms).  Given
    ``ports`` (exterior positions), that inverse is returned as the second
    value, rows and columns in tail order; without them the second value is
    None.  When the pivot-free factor fails its probe or SuperLU moves a
    pivot, back-substitutions in :data:`_EXTERIOR_BLOCK` chunks run instead.
    """
    n, k = a_ee.shape[0], ring.size
    extra = np.empty(0, dtype=ring.dtype) if ports is None else np.setdiff1d(ports, ring)
    tail = np.concatenate([ring, extra])
    t = tail.size
    rest = np.ones(n, dtype=bool)
    rest[tail] = False
    order = np.argsort(lu.perm_c)
    order = np.concatenate([order[rest[order]], tail])
    ordered = a_ee[order][:, order].tocsc()
    identity = np.arange(n)
    try:
        tail_lu = spla.splu(ordered, **{**_LU_SETTINGS[0], "permc_spec": "NATURAL"})
        probe = np.ones(n, dtype=complex)
        residual = np.linalg.norm(ordered @ tail_lu.solve(probe) - probe) / np.linalg.norm(probe)
    except RuntimeError:  # exactly singular without pivoting
        residual = np.inf
    if (
        residual <= _LU_PROBE_BOUND
        and np.array_equal(tail_lu.perm_c, identity)
        and np.array_equal(tail_lu.perm_r, identity)
    ):
        trailing = slice(n - t, n)
        if ports is None:
            schur = tail_lu.L[trailing, trailing].toarray() @ tail_lu.U[trailing, trailing].toarray()
            return np.linalg.solve(schur, coupling[ring].toarray()), None
        lower = tail_lu.L[trailing, trailing].toarray(order="F")
        upper = tail_lu.U[trailing, trailing].toarray(order="F")
        del tail_lu, ordered  # released before the dense algebra: a lower peak
        inverse = _lu_inverse(lower, upper)
        return inverse[:k, :k] @ coupling[ring].toarray(), inverse
    ring_rows = np.empty((k, coupling.shape[1]), dtype=complex)
    for start in range(0, coupling.shape[1], _EXTERIOR_BLOCK):
        block = slice(start, start + _EXTERIOR_BLOCK)
        ring_rows[:, block] = lu.solve(coupling[:, block].toarray())[ring]
    if ports is None:
        return ring_rows, None
    inverse = np.empty((t, t), dtype=complex)
    for start in range(0, t, _EXTERIOR_BLOCK):
        columns = tail[start : start + _EXTERIOR_BLOCK]
        unit = np.zeros((n, columns.size), dtype=complex)
        unit[columns, np.arange(columns.size)] = 1.0
        inverse[:, start : start + columns.size] = lu.solve(unit)[tail]
    return ring_rows, inverse


class _Exterior:
    """The part of a device operator no design touches, factored once.

    Split the unknowns into the design rectangle ``I`` and the exterior
    ``E``: ``A = [[A_II, A_IE], [A_EI, A_EE]]``.  A design moves only the
    diagonal of ``A_II``; ``A_EE`` carries the fixed exterior permittivity
    and the couplings are pure curl-curl stencil.  This holds the LU of
    ``A_EE`` and the design-independent part of the Schur complement
    ``S = A_II - A_IE A_EE^{-1} A_EI``.  Its correction term is a dense
    ``k x k`` block on the ``k`` border cells the stencil couples to the
    exterior ring ``R``, read off a second factor of ``A_EE`` that
    eliminates the ring last (:func:`_ring_rows`).  ``S`` is kept as a CSC
    template whose diagonal a design overwrites, the way
    :func:`_system_template` serves the full operator.

    Given ``ports`` (grid rows, see :func:`~repro.fdfd.monitors.port_rows`),
    the exterior ones form ``P`` and the second factor eliminates ``T = R ∪
    P`` last; its trailing block yields the resident *port block* ``W =
    (A_EE^{-1})[T, T]`` at no extra factorization.  ``A`` is complex
    symmetric, so for right-hand sides whose exterior support lies in ``P``
    (mode sources, adjoint sources of port objectives) every solve step
    that touched the whole exterior becomes a product with ``W``:

    * reduce: ``b_I - A_IE[:, R] W_RP b_P`` (:meth:`port_reduce`);
    * port readout: ``x_P = W_PP b_P - W_PR (A_EI x_I)_R`` (:meth:`port_readout`);
    * full recovery, only when a caller reads a full field:
      ``x_E = A_EE^{-1} (b_E - A_EI x_I)``, one back-substitution (:meth:`fill`).

    Any other right-hand side takes :meth:`reduce` and :meth:`recover`.
    """

    def __init__(
        self,
        grid: Grid,
        omega: float,
        eps_r: np.ndarray,
        region: tuple,
        ports: np.ndarray | None = None,
    ):
        inside = np.zeros(grid.shape, dtype=bool)
        inside[region] = True
        self.interior = np.flatnonzero(inside.ravel())
        self.exterior = np.flatnonzero(~inside.ravel())
        matrix = assemble_system_matrix(grid, omega, eps_r)
        exterior_rows = matrix[self.exterior]
        self.a_ei = exterior_rows[:, self.interior].tocsr()
        self.a_ie = matrix[self.interior][:, self.exterior].tocsr()
        a_ee = exterior_rows[:, self.exterior].tocsc()
        self.lu = factor_lu(a_ee)

        ring = np.union1d(
            np.flatnonzero(self.a_ei.getnnz(axis=1)), np.flatnonzero(self.a_ie.getnnz(axis=0))
        )
        border = np.union1d(
            np.flatnonzero(self.a_ei.getnnz(axis=0)), np.flatnonzero(self.a_ie.getnnz(axis=1))
        )
        # Exterior positions of the port rows outside the region.
        self.ports = None
        port_positions = None
        if ports is not None:
            ports = np.asarray(ports)
            self.ports = ports[~inside.ravel()[ports]]
            port_positions = np.searchsorted(self.exterior, self.ports)
        ring_rows, block = _ring_rows(
            a_ee, self.lu, ring, self.a_ei[:, border].tocsc(), port_positions
        )
        correction = self.a_ie[border][:, ring] @ ring_rows
        if block is not None:
            self._port_block(ring, port_positions, block)

        # curl-curl on the design rectangle (the system template carries an
        # explicit diagonal) minus the correction.  The COO -> CSC conversion
        # sums duplicates without dropping zeros, so the diagonal is always
        # present to overwrite.
        curl_curl = _system_template(grid, omega)["matrix"][self.interior][:, self.interior].tocoo()
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
        column_of = np.repeat(np.arange(schur.shape[1]), np.diff(schur.indptr))
        self.diag_positions = np.flatnonzero(schur.indices == column_of)
        self.base_diagonal = schur.data[self.diag_positions].copy()
        self.schur = schur
        self.nbytes = _entry_nbytes(self.lu) + _entry_nbytes((schur, self.a_ei, self.a_ie))
        if self.ports is not None:
            self.nbytes += self._w_rp.nbytes + self._w_pp.nbytes + self._w_pr.nbytes

    def _port_block(self, ring: np.ndarray, port_positions: np.ndarray, block: np.ndarray) -> None:
        """Keep the ``W`` blocks the port solves use (``block`` is ``W`` in tail order)."""
        tail_of = np.full(self.exterior.size, -1)
        tail_of[ring] = np.arange(ring.size)
        extra = np.setdiff1d(port_positions, ring)
        tail_of[extra] = ring.size + np.arange(extra.size)
        on_ring = np.arange(ring.size)
        on_ports = tail_of[port_positions]
        self._w_rp = block[np.ix_(on_ring, on_ports)]
        self._w_pp = block[np.ix_(on_ports, on_ports)]
        self._w_pr = block[np.ix_(on_ports, on_ring)]
        self._a_ie_ring = self.a_ie[:, ring].tocsr()
        self._a_ei_ring = self.a_ei[ring].tocsr()
        self._port_positions = port_positions
        self._off_ports = np.setdiff1d(self.exterior, self.ports)
        self._known = np.zeros(self.interior.size + self.exterior.size, dtype=bool)
        self._known[self.interior] = True
        self._known[self.ports] = True

    def schur_complement(self, omega: float, eps_r: np.ndarray) -> sp.csc_matrix:
        """``S(eps_r)``: the template with the design's diagonal written in."""
        data = self.schur.data.copy()
        diagonal = omega**2 * EPSILON_0 * np.asarray(eps_r).ravel()[self.interior]
        data[self.diag_positions] = self.base_diagonal + diagonal
        return sp.csc_matrix((data, self.schur.indices, self.schur.indptr), shape=self.schur.shape)

    def reduce(self, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(b_I - A_IE y, y)`` with ``y = A_EE^{-1} b_E``, for 1-D or column right-hand sides."""
        y = self.lu.solve(b[self.exterior])
        return b[self.interior] - self.a_ie @ y, y

    def recover(self, x_interior: np.ndarray, y: np.ndarray) -> np.ndarray:
        """The full solution from ``x_I``: ``x_E = y - A_EE^{-1} A_EI x_I``."""
        x = np.empty((self.interior.size + self.exterior.size, *y.shape[1:]), dtype=y.dtype)
        x[self.interior] = x_interior
        x[self.exterior] = y - self.lu.solve(self.a_ei @ x_interior)
        return x

    # -- the port block (row stacks ``(n_rhs, n)``) ------------------------------
    def serves(self, flat: np.ndarray) -> bool:
        """Whether the port block applies: every exterior entry of ``flat`` lies on ``P``."""
        return self.ports is not None and not np.any(flat[:, self._off_ports])

    def covers(self, rows: np.ndarray) -> bool:
        """Whether grid ``rows`` all lie in ``I ∪ P``, the rows a port solve computes."""
        return self.ports is not None and bool(self._known[rows].all())

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


def _exterior_digest(exterior_eps: np.ndarray, region: tuple) -> str:
    """Cache key of an exterior: its permittivity values plus the design region."""
    digest = hashlib.sha1(eps_fingerprint(exterior_eps).encode())
    digest.update(repr(region).encode())
    return digest.hexdigest()


class _CondensedLU:
    """Exact solves of ``A(eps_r)`` from a shared :class:`_Exterior` and the LU of ``S``.

    Exposes SuperLU's ``solve(b)`` for 1-D and column right-hand sides.  Per
    right-hand side: ``y = A_EE^{-1} b_E``, ``x_I = S^{-1} (b_I - A_IE y)``,
    ``x_E = y - A_EE^{-1} A_EI x_I``.
    """

    __slots__ = ("exterior", "lu")

    def __init__(self, exterior: _Exterior, omega: float, eps_r: np.ndarray):
        self.exterior = exterior
        self.lu = factor_lu(exterior.schur_complement(omega, eps_r))

    @property
    def nbytes(self) -> int:
        # The exterior is cached (and counted) under its own key.
        return _entry_nbytes(self.lu)

    def solve(self, b: np.ndarray) -> np.ndarray:
        reduced, y = self.exterior.reduce(np.asarray(b))
        return self.exterior.recover(self.lu.solve(reduced), y)


class RefinementError(RuntimeError):
    """Iterative refinement stopped contracting or ran out of sweeps."""


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

    The inner loop of :class:`RecycledEngine`, on the full grid and on a
    design region's Schur complement alike.  ``apply_inverse`` is the exact
    LU of a reference operator ``M`` and the target is ``A = M +
    diag(delta)`` (the diagonal drift between Adam iterates), so each sweep
    is::

        x += M^{-1} r              # correction through the reference LU
        r <- -delta * correction   # matvec-free residual recurrence

    until every ``||r|| <= rtol * max(||b||, tiny)``.  ``b_norms`` are the
    norms the tolerance is relative to, by default those of ``rhs``; a
    reduced system passes the norms of the full right-hand sides, since its
    residual is the full one.  ``apply_inverse`` takes a column matrix
    (``(n, k)``) like ``SuperLU.solve``; the whole active stack sweeps
    together through one multi-RHS call.  ``matrix`` (``A``) is needed only
    to form the starting residual of a warm guess ``x0``.  Returns ``(x,
    sweeps, back_substitutions)``.  Raises :class:`RefinementError` as soon
    as any active row fails to contract, or when the sweep budget runs out,
    so the caller can escalate to a stronger solver.
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
            raise RefinementError(
                f"refinement did not reach rtol={rtol} in {max_sweeps} sweeps "
                f"(worst relative residual "
                f"{float(np.max(norms / np.maximum(b_norms, 1e-300))):.3e})"
            )
        # A slice keeps the all-active sweep free of fancy-index copies.
        rows = slice(None) if active.all() else active
        correction = np.asarray(apply_inverse(residual[rows].T)).T
        x[rows] += correction
        new_residual = -delta[None, :] * correction
        new_norms = np.linalg.norm(new_residual, axis=1)
        if np.any(new_norms >= norms[rows]):
            raise RefinementError(
                f"refinement stopped contracting (residual {float(new_norms.max()):.3e}); "
                "the factorization does not precondition this operator"
            )
        residual[rows] = new_residual
        norms[rows] = new_norms
        back_substitutions += int(active.sum())
        sweeps += 1


# --------------------------------------------------------------------------- #
# engines
# --------------------------------------------------------------------------- #
_FIDELITY_TOKENS = itertools.count()


class SolverEngine:
    """Interface of a fidelity tier: batched linear solves of ``A(eps) x = b``.

    ``solve_batch`` receives the *full* right-hand side stack (any ``i omega``
    source scaling is the caller's business), so the same call serves forward
    solves (``b = i omega J``), adjoint solves (``b = dF/dEz``; the operator is
    complex symmetric, ``A^T = A``) and normalization runs.

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

    #: Whether ``solve_batch`` takes ``port_rows``: the grid rows (besides
    #: its design region) a caller reads.  Such an engine may then return a
    #: :class:`~repro.fdfd.lazy.Deferred` stack computed on the region and
    #: those rows only (NaN elsewhere), fully recovered on first request.
    reduces_to_ports: bool = False

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

    With a ``design_region`` (a device's ``design_slice``) and the
    ``exterior_eps`` outside it, an operator that matches ``exterior_eps``
    everywhere outside the region is *condensed*: the exterior block is
    factored once per ``(grid, omega, exterior)`` (cache tag
    ``"exterior"``), and each design factors only its Schur complement on
    the region (tag ``"condensed"``).  Every other operator — and every
    operator while the cache has a factorization store, which persists only
    full SuperLU artifacts — is factored in full under tag ``"direct"``.
    Both paths are exact.
    """

    name = "direct"

    def __init__(
        self,
        cache: FactorizationCache | None = None,
        design_region: tuple[slice, slice] | None = None,
        exterior_eps: np.ndarray | None = None,
    ):
        if (design_region is None) != (exterior_eps is None):
            raise ValueError("design_region and exterior_eps go together")
        self.cache = cache if cache is not None else default_factorization_cache
        self.design_region = design_region
        if design_region is not None:
            self._outside = np.ones(np.shape(exterior_eps), dtype=bool)
            self._outside[design_region] = False
            self._exterior_eps = np.asarray(exterior_eps)[self._outside]
            self._exterior_fingerprint = _exterior_digest(self._exterior_eps, design_region)

    @property
    def fidelity_signature(self) -> tuple:
        # Exact solves: results depend only on the operator, so every
        # direct engine (full or condensed) may share cached results.
        # Recycled solves are only rtol-converged and carry their own
        # signature.
        return ("exact",)

    def _condenses(self, grid: Grid, eps_r: np.ndarray) -> bool:
        return (
            self.design_region is not None
            and grid.shape == self._outside.shape
            and self.cache.store is None
            and np.array_equal(np.asarray(eps_r)[self._outside], self._exterior_eps)
        )

    def factorize(
        self, grid: Grid, omega: float, eps_r: np.ndarray, fingerprint: str | None = None
    ):
        """Factorization of ``A(eps_r)`` (a SuperLU or a condensed LU), shared through the cache."""
        if fingerprint is None:
            fingerprint = eps_fingerprint(eps_r)
        if self._condenses(grid, eps_r):
            return self.cache.get_or_build(
                grid,
                omega,
                fingerprint,
                lambda: _CondensedLU(self._exterior(grid, omega, eps_r), omega, eps_r),
                tag="condensed",
            )
        return self.cache.get_or_build(
            grid,
            omega,
            fingerprint,
            lambda: factor_lu(assemble_system_matrix(grid, omega, eps_r)),
            tag="direct",
        )

    def _exterior(self, grid: Grid, omega: float, eps_r: np.ndarray) -> _Exterior:
        # Built lazily by the first condensed build; ``eps_r`` matches the
        # exterior outside the region, and the region's values do not enter.
        return self.cache.get_or_build(
            grid,
            omega,
            self._exterior_fingerprint,
            lambda: _Exterior(grid, omega, eps_r, self.design_region),
            tag="exterior",
        )

    def solve_batch(self, grid, omega, eps_r, rhs, fingerprint=None, x0=None):
        eps_r, rhs = self._check_batch(grid, eps_r, rhs)
        lu = self.factorize(grid, omega, eps_r, fingerprint)
        # One back-substitution on an (n_points, n_rhs) matrix.  Exact solves
        # have nothing to gain from an initial guess; x0 is accepted (and
        # ignored) so call sites can thread warm starts engine-agnostically.
        solutions = lu.solve(rhs.reshape(rhs.shape[0], -1).T)
        return np.ascontiguousarray(solutions.T).reshape(rhs.shape)


@dataclass
class RecycleStats(StatsCounters):
    """What a :class:`RecycledEngine` actually did, for tests and benchmarks."""

    factorizations: int = 0
    exact_solves: int = 0
    recycled_solves: int = 0
    krylov_iterations: int = 0
    fallbacks: int = 0


class _RecycledReference:
    """A frozen permittivity snapshot whose exact LU preconditions nearby solves."""

    __slots__ = ("fingerprint", "eps", "eps_norm", "last_iterations")

    def __init__(self, fingerprint: str, eps: np.ndarray):
        self.fingerprint = fingerprint
        self.eps = np.array(eps, copy=True)
        self.eps_norm = float(np.linalg.norm(self.eps.ravel()))
        self.last_iterations = 0.0


#: ``(grid, omega, exterior)`` sightings a :class:`RecycledEngine` remembers.
#: An exterior that falls out of the memo is solved on the full grid once more.
_SIGHTINGS = 64


class _Frame:
    """The unknowns one recycled solve works on: the full grid, or the region's ``S``.

    The recycling loop sees a reference LU, the current matrix and the
    diagonal drift, all in the frame's unknowns.  On the full grid
    (``exterior`` None) :meth:`reduce` passes right-hand sides and solutions
    through.  Over a resident :class:`_Exterior` the loop between reduce and
    recovery factors, refines and iterates on the Schur complement of the
    design region only.  A ``one_off`` frame (an exterior's first sighting
    on a region) solves on the full grid and keeps no reference.  Stacks are
    rows, ``(n_rhs, n)``.
    """

    __slots__ = ("grid", "omega", "exterior", "one_off", "key", "tag")

    def __init__(
        self,
        grid: Grid,
        omega: float,
        exterior: _Exterior | None = None,
        digest: str | None = None,
        one_off: bool = False,
    ):
        self.grid = grid
        self.omega = omega
        self.exterior = exterior
        self.one_off = one_off
        if exterior is None:
            self.key, self.tag = (grid, omega), "recycled"
        else:
            self.key, self.tag = (grid, omega, digest), "recycled_schur"

    def restrict(self, values: np.ndarray) -> np.ndarray:
        """The frame's unknowns of grid-flat values (last axis)."""
        return values if self.exterior is None else values[..., self.exterior.interior]

    def factor(self, eps_r: np.ndarray):
        if self.exterior is None:
            return factor_lu(assemble_system_matrix(self.grid, self.omega, eps_r))
        return factor_lu(self.exterior.schur_complement(self.omega, eps_r))

    def reduce(self, flat: np.ndarray, port_rows: np.ndarray | None):
        """The frame's right-hand sides, and the map from its solutions back to the grid.

        The map returns full solutions, except on the port path with
        ``port_rows`` inside ``I ∪ P``: then it returns a :class:`Deferred`
        stack, computed on ``I ∪ P`` (NaN elsewhere) and fully recovered on
        first request.  Right-hand sides the port block does not serve take
        the exterior's two back-substitutions, as do exteriors without one.
        """
        exterior = self.exterior
        if exterior is None:
            return flat, lambda x: x
        if not exterior.serves(flat):
            reduced, y = exterior.reduce(flat.T)
            return reduced.T, lambda x: exterior.recover(x.T, y).T
        b_ports = flat[:, exterior.ports]
        reduced = exterior.port_reduce(flat[:, exterior.interior], b_ports)
        if port_rows is not None and exterior.covers(port_rows):
            return reduced, lambda x: self._port_stack(b_ports, x)

        def recover(x):
            full = np.empty((x.shape[0], self.grid.n_points), dtype=complex)
            full[:, exterior.interior] = x
            full[:, exterior.exterior] = exterior.fill(b_ports, x)
            return full

        return reduced, recover

    def _port_stack(self, b_ports: np.ndarray, x: np.ndarray) -> Deferred:
        exterior = self.exterior
        flat = np.full((x.shape[0], self.grid.n_points), np.nan, dtype=complex)
        flat[:, exterior.interior] = x
        flat[:, exterior.ports] = exterior.port_readout(b_ports, x)
        stack = flat.reshape(x.shape[0], *self.grid.shape)

        def recover():
            flat[:, exterior.exterior] = exterior.fill(b_ports, x)
            return stack

        return Deferred(stack, recover)


class RecycledEngine(SolverEngine):
    """Exact-LU-preconditioned Krylov solves recycled across nearby operators.

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
    2. BiCGStab preconditioned with the same reference LU when
       refinement does not contract (each Krylov iteration costs matvecs and
       back-substitutions, but converges for any drift the LU still roughly
       preconditions);
    3. refactorization when both fail — so results are always converged to
       ``rtol`` relative residual, or exact.

    Per ``(grid, omega)`` the engine keeps a small LRU of reference
    permittivities (so e.g. the design operator and the constant normalization
    waveguide recycle independently instead of thrashing one slot).  A solve

    * whose fingerprint matches a reference exactly is a pure (exact)
      back-substitution,
    * whose nearest reference is within ``drift_threshold`` (relative L2
      ``||eps - eps_ref|| / ||eps_ref||``) and whose last recycled solve
      stayed under ``max_krylov`` inner iterations (refinement sweeps or
      Krylov iterations, whichever ran — an inner iteration costs roughly one
      back-substitution, so this is the knob trading per-solve iteration work
      against refactorization frequency) is recycled,
    * otherwise triggers a refactorization: the current permittivity becomes a
      new reference and the batch is solved exactly against its fresh LU.

    Given a device's ``design_region`` (``InverseDesignProblem`` passes its
    ``design_slice`` for ``engine="recycled"``), the same loop runs on the
    region only.  The first solve against an exterior (the permittivity
    outside the region) runs on the full grid; from its second sighting on,
    the exterior is factored once (tag ``"exterior"``; without ``port_rows``
    it is the :class:`DirectEngine` exterior, same digest) and every solve
    *reduces* the right-hand sides to the region (``b_I - A_IE A_EE^{-1}
    b_E``), recycles on the Schur
    complement ``S`` (references keyed by ``(grid, omega, exterior)``, their
    LUs factor only ``S``), and *recovers* ``x_E = A_EE^{-1} (b_E - A_EI
    x_I)`` exactly.  The full residual then equals the reduced one, so the
    tolerance is measured against the full ``||b||`` and the contract above
    holds unchanged.  While the cache has a factorization store the engine
    stays on the full grid (the store persists only full SuperLU artifacts).

    The optimization loop never back-substitutes through the exterior.
    ``Simulation`` passes ``port_rows`` (the rows port measurements and
    objectives read), the exterior is built with a port block for them (see
    :class:`_Exterior`), and a right-hand side supported on the region and
    those rows reduces and reads out its port rows through dense products
    with that block.  The result is a :class:`~repro.fdfd.lazy.Deferred`
    stack, exact on ``I ∪ P`` and NaN elsewhere; its one exterior
    back-substitution runs only if a caller reads the full field; if
    ``port_rows`` reach outside ``I ∪ P``, it runs at once.  Right-hand
    sides with support elsewhere and solves without ``port_rows`` (on an
    exterior without a port block) take the exterior's two
    back-substitutions; full-grid and one-off frames solve on the full
    grid, as before.

    A recycled solve that fails to converge falls back to refactorization, so
    results are always converged to ``rtol`` (or exact).  Warm starts
    (``x0``, threaded from a :class:`SolveWorkspace`) cut the iteration count
    further.  Reference LUs live in the shared :class:`FactorizationCache`
    under the ``"recycled"`` tag (``"recycled_schur"`` on a region), so
    ``Simulation.set_permittivity`` eviction and cache-size limits apply to
    them like to any other factorization.
    """

    name = "recycled"
    supports_warm_start = True
    reduces_to_ports = True

    def __init__(
        self,
        rtol: float = 1e-6,
        maxiter: int = 200,
        max_sweeps: int = 16,
        drift_threshold: float = 0.1,
        max_krylov: int = 6,
        max_references: int = 4,
        cache: FactorizationCache | None = None,
        design_region: tuple[slice, slice] | None = None,
    ):
        if max_references < 1:
            raise ValueError(f"max_references must be at least 1, got {max_references}")
        self.rtol = float(rtol)
        self.maxiter = int(maxiter)
        self.max_sweeps = int(max_sweeps)
        self.drift_threshold = float(drift_threshold)
        self.max_krylov = int(max_krylov)
        self.max_references = int(max_references)
        self.cache = cache if cache is not None else default_factorization_cache
        self.design_region = design_region
        self._references: dict[tuple, OrderedDict[str, _RecycledReference]] = {}
        self._scratch: dict[tuple, sp.csr_matrix] = {}
        # The (grid, omega, exterior digest) triples solved against so far.
        self._sightings = BoundedCache(_SIGHTINGS)
        self.stats = RecycleStats()

    @property
    def fidelity_signature(self) -> tuple:
        # Recycled solves are exact on reference hits but rtol-converged in
        # between; identically-configured recycled engines may share results.
        return (self.name, self.rtol)

    # -- reference bookkeeping --------------------------------------------------
    def _lu(self, frame: _Frame, reference: _RecycledReference):
        """The reference LU, shared (and evictable) through the cache.

        Counting factorizations here (not in :meth:`_refactorize`) keeps the
        stats truthful when an evicted reference LU has to be rebuilt.
        """

        def build():
            self.stats.factorizations += 1
            return frame.factor(reference.eps)

        # The reference permittivity travels with the published LU so other
        # processes can adopt the reference itself (see warm_from_store).
        return self.cache.get_or_build(
            frame.grid,
            frame.omega,
            reference.fingerprint,
            build,
            tag=frame.tag,
            store_payload=lambda: {"eps": reference.eps},
        )

    def warm_from_store(self, grid: Grid, omega: float, limit: int | None = None) -> int:
        """Adopt recycled references other processes published to the store.

        Reads the reference permittivities (newest first) that ride along in
        ``"recycled"``-tagged artifacts of this ``(grid, omega)`` and installs
        them as local references, up to ``limit`` (default ``max_references``)
        and never evicting existing ones.  The heavy LU payloads are *not*
        read here — they memory-map lazily through the cache fall-through when
        a reference is first solved against.  Returns the number adopted;
        0 when no store is attached.  This is the cross-process version of the
        warm-up an optimization loop gets for free in-process: a fresh worker
        starts recycling immediately instead of refactorizing first.
        """
        store = getattr(self.cache, "store", None)
        if store is None:
            return 0
        references = self._references.setdefault((grid, float(omega)), OrderedDict())
        budget = self.max_references if limit is None else int(limit)
        adopted = 0
        for fingerprint, eps in store.list_extras(
            grid, omega, tag="recycled", name="eps", limit=budget
        ):
            if fingerprint in references or len(references) >= self.max_references:
                continue
            eps = np.asarray(eps).reshape(grid.shape)
            reference = _RecycledReference(fingerprint, eps)
            # Adopted references go to the cold end of the LRU: locally-made
            # references (if any) describe this process's trajectory better.
            references[fingerprint] = reference
            references.move_to_end(fingerprint, last=False)
            adopted += 1
            if adopted >= budget:
                break
        return adopted

    def _frame(
        self, grid: Grid, omega: float, eps_r: np.ndarray, port_rows: np.ndarray | None = None
    ) -> _Frame:
        """The full grid, or the region's ``S`` once this exterior is seen again.

        With ``port_rows`` the exterior carries a port block for them.  The
        block is part of the exterior's cache key, so a port-less exterior
        (a ``DirectEngine``'s, or one for solves without ``port_rows``) never
        serves a port solve, and a ``DirectEngine`` never reads a ported one:
        its labels do not depend on which engine built an exterior first.
        """
        omega = float(omega)
        if self.design_region is None or self.cache.store is not None:
            return _Frame(grid, omega)
        outside = np.ones(grid.shape, dtype=bool)
        outside[self.design_region] = False
        digest = _exterior_digest(eps_r[outside], self.design_region)
        sighting = (grid, omega, digest)
        if self._sightings.get(sighting) is None:
            self._sightings.put(sighting, True)
            return _Frame(grid, omega, one_off=True)
        exterior = self.cache.get_or_build(
            grid,
            omega,
            digest if port_rows is None else digest + "+ports",
            lambda: _Exterior(grid, omega, eps_r, self.design_region, port_rows),
            tag="exterior",
        )
        return _Frame(grid, omega, exterior, digest)

    @staticmethod
    def _nearest_reference(
        references: OrderedDict[str, _RecycledReference], eps_r: np.ndarray
    ) -> tuple[_RecycledReference | None, float]:
        best, best_drift = None, float("inf")
        flat = eps_r.ravel()
        for reference in references.values():
            drift = float(np.linalg.norm(flat - reference.eps.ravel()))
            drift /= max(reference.eps_norm, 1e-300)
            if drift < best_drift:
                best, best_drift = reference, drift
        return best, best_drift

    def _system_matrix(self, frame: _Frame, eps_r: np.ndarray) -> sp.spmatrix:
        """The current operator in the frame's unknowns.

        On the full grid one scratch matrix per ``(grid, omega)`` has its
        diagonal refreshed in place per solve.
        """
        if frame.exterior is not None:
            return frame.exterior.schur_complement(frame.omega, eps_r)
        scratch = self._scratch.get(frame.key)
        if scratch is None:
            self._scratch[frame.key] = scratch = assemble_system_matrix(
                frame.grid, frame.omega, eps_r
            )
            return scratch
        return update_system_diagonal(scratch, frame.grid, frame.omega, eps_r)

    def _reference_solve(
        self, frame: _Frame, reference: _RecycledReference, rhs: np.ndarray
    ) -> np.ndarray:
        """Solve at the reference permittivity itself: one exact back-substitution."""
        return self._lu(frame, reference).solve(rhs.T).T

    def _refactorize(
        self,
        references: OrderedDict[str, _RecycledReference],
        frame: _Frame,
        eps_r: np.ndarray,
        fingerprint: str,
        rhs: np.ndarray,
    ) -> np.ndarray:
        if frame.one_off:
            # An exterior's first sighting on a region: its next solve
            # condenses, so a full-grid reference would never be used again.
            self.stats.factorizations += 1
            return frame.factor(eps_r).solve(rhs.T).T
        reference = _RecycledReference(fingerprint, eps_r)
        references[fingerprint] = reference
        while len(references) > self.max_references:
            stale_fp, _ = references.popitem(last=False)
            self.cache.evict(frame.grid, frame.omega, stale_fp, tag=frame.tag)
        return self._reference_solve(frame, reference, rhs)

    def _krylov_solve(
        self, lu, matrix, rhs: np.ndarray, full_rhs: np.ndarray, x0: np.ndarray | None
    ) -> tuple[np.ndarray | None, float]:
        """LU-preconditioned BiCGStab; ``(None, inf)`` on non-convergence.

        Converged means ``||r|| <= rtol ||b||`` for the full right-hand side
        ``b`` (a row of ``full_rhs``), which on a region is the same bound on
        the full residual.
        """
        preconditioner = spla.LinearOperator(matrix.shape, lu.solve, dtype=complex)
        solutions = np.empty_like(rhs)
        worst = 0
        for index, b in enumerate(rhs):
            iterations = [0]

            def callback(_):
                iterations[0] += 1

            x, info = spla.bicgstab(
                matrix, b, x0=None if x0 is None else x0[index], rtol=0.0,
                atol=self.rtol * np.linalg.norm(full_rhs[index]), maxiter=self.maxiter,
                M=preconditioner, callback=callback,
            )
            if info != 0:
                return None, float("inf")
            solutions[index] = x
            self.stats.krylov_iterations += iterations[0]
            worst = max(worst, iterations[0])
        return solutions, float(worst)

    def _recycled_solve(
        self,
        frame: _Frame,
        eps_r: np.ndarray,
        rhs: np.ndarray,
        full_rhs: np.ndarray,
        reference: _RecycledReference,
        x0: np.ndarray | None,
    ) -> tuple[np.ndarray | None, float]:
        """The recycled path: cheap refinement first, Krylov as the fallback.

        ``A = A_ref + diag(delta)`` with ``delta = omega^2 eps0 (eps - eps_ref)``,
        so refinement against the exact reference LU runs the matvec-free
        residual recurrence and converges linearly at rate
        ``rho(A_ref^{-1} diag(delta))``.  A stall or the sweep cap escalates
        to Krylov against the same LU.  On a region ``A``, ``A_ref`` and
        ``delta`` are ``S``, ``S_ref`` and the drift inside the region (the
        exterior is shared, so ``S - S_ref`` is that same diagonal).
        """
        lu = self._lu(frame, reference)
        matrix = self._system_matrix(frame, eps_r)
        drift = eps_r.ravel() - reference.eps.ravel()
        delta = (frame.omega**2 * EPSILON_0 * drift).astype(complex)
        try:
            x, sweeps, back_substitutions = iterative_refine(
                lu.solve,
                rhs,
                self.rtol,
                self.max_sweeps,
                frame.restrict(delta),
                matrix=matrix,
                x0=x0,
                b_norms=np.linalg.norm(full_rhs, axis=1),
            )
        except RefinementError:
            pass
        else:
            self.stats.krylov_iterations += back_substitutions
            return x, float(sweeps)
        return self._krylov_solve(lu, matrix, rhs, full_rhs, x0)

    # -- the solve ---------------------------------------------------------------
    def solve_batch(self, grid, omega, eps_r, rhs, fingerprint=None, x0=None, port_rows=None):
        eps_r, rhs = self._check_batch(grid, eps_r, rhs)
        if fingerprint is None:
            fingerprint = eps_fingerprint(eps_r)
        frame = self._frame(grid, omega, eps_r, port_rows)
        full_rhs = rhs.reshape(rhs.shape[0], -1)
        reduced, back = frame.reduce(full_rhs, port_rows)
        if x0 is not None:
            x0 = frame.restrict(np.asarray(x0, dtype=complex).reshape(full_rhs.shape))
            if not np.isfinite(x0).all():
                # Port-solve fields read outside I ∪ P (a full-grid frame):
                # no guess rather than a NaN one.
                x0 = None
        solutions = back(self._solve_reduced(frame, eps_r, fingerprint, reduced, full_rhs, x0))
        if isinstance(solutions, Deferred):
            return solutions
        return np.ascontiguousarray(solutions).reshape(rhs.shape)

    def _solve_reduced(self, frame, eps_r, fingerprint, rhs, full_rhs, x0) -> np.ndarray:
        """Reference hit, recycled solve or refactorization, in the frame's unknowns."""
        references = self._references.setdefault(frame.key, OrderedDict())

        reference = references.get(fingerprint)
        if reference is not None:
            # Exact fingerprint match (e.g. the unchanged normalization
            # waveguide): a pure back-substitution, exact like DirectEngine.
            references.move_to_end(fingerprint)
            self.stats.exact_solves += 1
            return self._reference_solve(frame, reference, rhs)

        reference, drift = self._nearest_reference(references, eps_r)
        if (
            reference is None
            or drift > self.drift_threshold
            or reference.last_iterations > self.max_krylov
        ):
            return self._refactorize(references, frame, eps_r, fingerprint, rhs)

        solutions, iterations = self._recycled_solve(
            frame, eps_r, rhs, full_rhs, reference, x0
        )
        if solutions is None:
            # Neither refinement nor Krylov converged: the reference no longer
            # preconditions well.  Refactorize at the current permittivity —
            # the result stays exact.
            self.stats.fallbacks += 1
            reference.last_iterations = float("inf")
            return self._refactorize(references, frame, eps_r, fingerprint, rhs)
        reference.last_iterations = iterations
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
        # own solves, so process-wide result caches must never serve a hit
        # recorded through a *different* wrapper (or none) as this one's.
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


def _named_factory(engine):
    """The registry factory a plain engine name selects (None for anything else)."""
    if not isinstance(engine, str):
        return None
    key, spec = split_engine_name(engine)
    return _ENGINE_FACTORIES.get(key) if spec is None else None


def selects_direct(engine) -> bool:
    """Whether an engine argument selects the plain exact tier.

    True for None and for any registry alias of :class:`DirectEngine`
    (``"direct"``, ``"superlu"``, ``"high"``); False for engine instances
    and every other name.
    """
    return engine is None or _named_factory(engine) is DirectEngine


def selects_recycled(engine) -> bool:
    """Whether an engine argument is a registry name of :class:`RecycledEngine`.

    False for engine instances, which callers use as given.
    """
    return _named_factory(engine) is RecycledEngine


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


def resolve_engine(engine: SolverEngine | str | None, **kwargs) -> SolverEngine:
    """Normalize an engine argument: instance, registry name or None (direct).

    Objects exposing ``as_engine()`` (e.g. :class:`~repro.service.SolveService`)
    are accepted too, so a configured service drops in anywhere an engine
    does: ``Simulation(engine=my_service)``.
    """
    if engine is None:
        return DirectEngine(**kwargs)
    if isinstance(engine, str):
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
