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
* :class:`IterativeEngine` — BiCGStab/GMRES with an incomplete-LU
  preconditioner: a cheap, approximate low-fidelity tier.
* :class:`RefinedEngine` — mixed precision: the LU is factored in reduced
  (fp32/complex64) precision — ~0.6x the factor bytes (the complex values
  halve, their indices do not) — and fp64 accuracy is recovered by
  iterative refinement against the full-precision operator.
* :class:`RecycledEngine` — the optimization-loop tier: keeps the exact LU of
  a *reference* permittivity and solves nearby permittivities (consecutive
  Adam iterates differ only on the operator diagonal) with LU-preconditioned
  Krylov iterations, refactorizing only when the design drifts too far or the
  iteration counts creep up.
* ``"neural"`` — a trained surrogate registered by
  :mod:`repro.surrogate.neural_solver` (see :class:`NeuralEngine` there).
* ``"service"`` — the coalescing async front-end registered by
  :mod:`repro.service.solve_service`: requests from concurrent call sites
  are micro-batched into single ``solve_batch`` calls on a backing tier.

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

from repro.constants import EPSILON_0, MU_0
from repro.fdfd.derivatives import derivative_operators
from repro.fdfd.grid import Grid
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
    "IterativeEngine",
    "RefinedEngine",
    "RefineStats",
    "RecycledEngine",
    "RecycleStats",
    "scoped_stats",
    "CountingEngine",
    "factor_lu",
    "precision_dtype",
    "dtype_cache_tag",
    "iterative_refine",
    "RefinementError",
    "register_engine",
    "available_engines",
    "split_engine_name",
    "selects_direct",
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
    :class:`RecycledEngine`, a :class:`RefinedEngine`, a
    :class:`FactorizationCache`, ...) temporarily gets a zeroed stats object
    (gauges carried over); the list of those scoped objects is yielded in
    holder order.  On exit the scoped counts are merged back into the
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
    engine stores for that operator (a SuperLU object for the direct engine,
    an incomplete LU plus the assembled matrix for the iterative one).  The
    cache is deliberately engine-agnostic: entries are namespaced by a ``tag``
    so direct and iterative factorizations of the same operator coexist.

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
        # key -> (entry, estimated bytes)
        self._entries = BoundedCache(maxsize)
        self.stats = CacheStats()
        self._lock = threading.RLock()
        self._store = store
        self._env_store = None

    @staticmethod
    def _key(grid: Grid, omega: float, fingerprint: str, tag: str) -> tuple:
        return (grid, float(omega), fingerprint, tag)

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
            cached = self._entries.get(key)
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
        with self._lock:
            lost_race = self._entries.pop(key)  # last insert wins
            if lost_race is not None:
                self.stats.current_bytes -= lost_race[1]
            for _, (_, stale_size) in self._entries.put(key, (entry, size)):
                self.stats.current_bytes -= stale_size
                self.stats.evictions += 1
            self.stats.current_bytes += size

    def peek(self, grid: Grid, omega: float, fingerprint: str, tag: str = "direct"):
        """Return a cached entry (refreshed, like any hit) without building or counting."""
        cached = self._entries.get(self._key(grid, omega, fingerprint, tag))
        return None if cached is None else cached[0]

    def evict(self, grid: Grid, omega: float, fingerprint: str, tag: str | None = None) -> int:
        """Drop entries for one operator (all tags unless one is given)."""
        with self._lock:
            if tag is not None:
                keys = [self._key(grid, omega, fingerprint, tag)]
            else:
                prefix = (grid, float(omega), fingerprint)
                keys = [key for key in self._entries.keys() if key[:3] == prefix]
            dropped = 0
            for key in keys:
                cached = self._entries.pop(key)
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
            self.stats.reset()
            self.stats.current_bytes = 0

    def keys(self) -> list[tuple]:
        """Cached keys ``(grid, omega, fingerprint, tag)``, least recently used first."""
        return self._entries.keys()

    def __len__(self) -> int:
        return len(self._entries)


default_factorization_cache = FactorizationCache()
"""The cache shared by every engine that is not given its own.

Process-wide by design: up to ``maxsize`` factorizations stay alive for the
life of the process (sized by ``REPRO_FACTORIZATION_CACHE_SIZE``, read when a
cache is constructed — for this default, at import time).  Long-running
programs that are done solving can release the memory explicitly with
``default_factorization_cache.clear()``.
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
# mixed precision: reduced-precision factorizations + fp64 refinement
# --------------------------------------------------------------------------- #
#: Accepted ``precision=`` spellings and the complex factor dtype they mean.
_PRECISION_ALIASES = {
    "fp64": np.complex128,
    "double": np.complex128,
    "float64": np.complex128,
    "complex128": np.complex128,
    "fp32": np.complex64,
    "single": np.complex64,
    "float32": np.complex64,
    "complex64": np.complex64,
}


def precision_dtype(precision) -> np.dtype:
    """Normalize a precision spec to the complex dtype factorizations use.

    Accepts the ``fp64``/``fp32`` (and ``double``/``single``, real or complex
    NumPy dtype name) spellings used by engine constructors, configs and the
    CLI.  Only the two complex LAPACK precisions exist, so anything else is a
    hard error rather than a silent fp64 fallback.
    """
    if isinstance(precision, str):
        key = precision.lower().strip()
        if key not in _PRECISION_ALIASES:
            raise ValueError(
                f"unknown precision {precision!r}; expected one of "
                f"{sorted(_PRECISION_ALIASES)}"
            )
        return np.dtype(_PRECISION_ALIASES[key])
    dtype = np.dtype(precision)
    if dtype.name in _PRECISION_ALIASES:
        return np.dtype(_PRECISION_ALIASES[dtype.name])
    raise ValueError(f"unsupported factorization dtype {dtype.name!r}")


def dtype_cache_tag(base: str, dtype) -> str:
    """Cache/store tag for factorizations of ``dtype`` under a base tag.

    Full precision keeps the bare base tag (existing fp64 artifacts stay
    valid); reduced precisions get a dtype-suffixed namespace, so fp32 and
    fp64 factorizations of the same operator can never collide in the
    :class:`FactorizationCache` or in a store directory.  The dtype goes in
    the *tag*, not the fingerprint: store consumers parse raw permittivity
    fingerprints back out of artifact filenames (``list_extras``), which a
    fingerprint suffix would corrupt.
    """
    dtype = precision_dtype(dtype)
    if dtype == np.dtype(np.complex128):
        return base
    return f"{base}-{dtype.name}"


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
#: factor may leave.  Worst cases measured over the device zoo (both
#: fidelities, binary and random designs): ~5e-13 at complex128 and ~2e-4 at
#: (equilibrated) complex64; the complex64 bound only needs to keep
#: iterative refinement contracting.
_LU_PROBE_BOUND = {np.dtype(np.complex128): 1e-10, np.dtype(np.complex64): 1e-2}


def factor_lu(matrix: sp.spmatrix) -> spla.SuperLU:
    """SuperLU factorization of an FDFD operator: symmetric mode, then default.

    The symmetric-mode factor is checked by one probe solve (``b = 1``); a
    non-finite or too-large relative residual (see :data:`_LU_PROBE_BOUND`)
    refactors with SuperLU's default partial pivoting, whose factor is
    returned as is.  Every LU factorization in the package goes through here.
    """
    matrix = matrix.tocsc()
    bound = _LU_PROBE_BOUND[np.dtype(matrix.dtype)]
    probe = np.ones(matrix.shape[0], dtype=matrix.dtype)
    for settings in _LU_SETTINGS:
        lu = spla.splu(matrix, **settings)
        residual = np.linalg.norm(matrix @ lu.solve(probe) - probe) / np.linalg.norm(probe)
        if residual <= bound:  # False for NaN/inf
            break
    return lu


# --------------------------------------------------------------------------- #
# design-region condensation: the fixed exterior factored once per device
# --------------------------------------------------------------------------- #
#: Columns of ``A_EE^{-1} A_EI`` back-substituted at a time while an exterior
#: is built.  Only their ring rows are kept, so the transient is one
#: ``(n_E, 32)`` block (~4 MB on a 104^2 grid), not the full ``(n_E, k)``.
_EXTERIOR_BLOCK = 32


class _Exterior:
    """The part of a device operator no design touches, factored once.

    Split the unknowns into the design rectangle ``I`` and the exterior
    ``E``: ``A = [[A_II, A_IE], [A_EI, A_EE]]``.  A design moves only the
    diagonal of ``A_II``; ``A_EE`` carries the fixed exterior permittivity
    and the couplings are pure curl-curl stencil.  This holds the LU of
    ``A_EE`` and the design-independent part of the Schur complement
    ``S = A_II - A_IE A_EE^{-1} A_EI``.  Its correction term is a dense
    ``k x k`` block on the ``k`` border cells the stencil couples to the
    exterior ring, computed with ``k`` exterior back-substitutions.  ``S``
    is kept as a CSC template whose diagonal a design overwrites, the way
    :func:`_system_template` serves the full operator.
    """

    def __init__(self, grid: Grid, omega: float, eps_r: np.ndarray, region: tuple):
        inside = np.zeros(grid.shape, dtype=bool)
        inside[region] = True
        self.interior = np.flatnonzero(inside.ravel())
        self.exterior = np.flatnonzero(~inside.ravel())
        matrix = assemble_system_matrix(grid, omega, eps_r)
        exterior_rows = matrix[self.exterior]
        self.a_ei = exterior_rows[:, self.interior].tocsr()
        self.a_ie = matrix[self.interior][:, self.exterior].tocsr()
        self.lu = factor_lu(exterior_rows[:, self.exterior])

        ring = np.union1d(
            np.flatnonzero(self.a_ei.getnnz(axis=1)), np.flatnonzero(self.a_ie.getnnz(axis=0))
        )
        border = np.union1d(
            np.flatnonzero(self.a_ei.getnnz(axis=0)), np.flatnonzero(self.a_ie.getnnz(axis=1))
        )
        coupling = self.a_ei[:, border].tocsc()
        ring_rows = np.empty((ring.size, border.size), dtype=complex)
        for start in range(0, border.size, _EXTERIOR_BLOCK):
            block = slice(start, start + _EXTERIOR_BLOCK)
            ring_rows[:, block] = self.lu.solve(coupling[:, block].toarray())[ring]
        correction = self.a_ie[border][:, ring] @ ring_rows

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

    def schur_complement(self, omega: float, eps_r: np.ndarray) -> sp.csc_matrix:
        """``S(eps_r)``: the template with the design's diagonal written in."""
        data = self.schur.data.copy()
        diagonal = omega**2 * EPSILON_0 * np.asarray(eps_r).ravel()[self.interior]
        data[self.diag_positions] = self.base_diagonal + diagonal
        return sp.csc_matrix((data, self.schur.indices, self.schur.indptr), shape=self.schur.shape)


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
        outer = self.exterior
        b = np.asarray(b)
        y = outer.lu.solve(b[outer.exterior])
        x_interior = self.lu.solve(b[outer.interior] - outer.a_ie @ y)
        x = np.empty(b.shape, dtype=y.dtype)
        x[outer.interior] = x_interior
        x[outer.exterior] = y - outer.lu.solve(outer.a_ei @ x_interior)
        return x


class _PrecisionLU:
    """A SuperLU factorization of the row-equilibrated reduced-precision operator.

    Wraps the fp32 SuperLU together with the fp64 row-equilibration scale:
    the factored matrix is ``D A`` with ``D = diag(1/max_j |A_ij|)``, computed
    *before* the downcast — FDFD operator entries span ~1e17–1e20, close
    enough to fp32's ~3.4e38 ceiling that pivot growth inside an unscaled
    factorization can overflow, and equilibration also tightens the
    refinement contraction rate.  ``solve`` applies the scale and casts into
    the factor dtype, so it approximates ``A^{-1} b`` directly (solving
    ``(D A) x = D b`` needs no unscaling of ``x``).

    Exposes the SuperLU artifact surface (``L``/``U``/``perm_r``/``perm_c``/
    ``shape``/``nnz``/``solve``) so :class:`FileFactorizationStore` persists
    and probe-validates it like any exact LU; the scale rides along as a
    store extra (see :func:`_factor_apply`).
    """

    __slots__ = ("lu", "row_scale", "dtype")

    from_store = False

    def __init__(self, lu: spla.SuperLU, row_scale: np.ndarray):
        self.lu = lu
        self.row_scale = np.ascontiguousarray(row_scale, dtype=np.float64)
        self.dtype = np.dtype(lu.L.dtype)

    # -- SuperLU artifact surface ------------------------------------------------
    @property
    def L(self):
        return self.lu.L

    @property
    def U(self):
        return self.lu.U

    @property
    def perm_r(self):
        return self.lu.perm_r

    @property
    def perm_c(self):
        return self.lu.perm_c

    @property
    def shape(self):
        return self.lu.shape

    @property
    def nnz(self) -> int:
        return int(self.lu.L.nnz + self.lu.U.nnz)

    @property
    def nbytes(self) -> int:
        itemsize = self.dtype.itemsize
        return int(self.nnz * (itemsize + 4) + self.row_scale.nbytes)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Reduced-precision approximation of ``A^{-1} b`` (column RHS layout)."""
        b = np.asarray(b)
        scaled = self.row_scale[:, None] * b if b.ndim == 2 else self.row_scale * b
        # SuperLU's "safe" casting refuses complex128 RHS against a complex64
        # factorization; the downcast is the point of this tier.
        return self.lu.solve(scaled.astype(self.dtype, copy=False))

    def factor_solve(self, b: np.ndarray) -> np.ndarray:
        """Back-substitution on the *equilibrated* system, no row scaling.

        This is what a store artifact reconstructs (only the factors are
        persisted; the scale rides as an extra), so the publish-time probe
        self-check compares against this, not :meth:`solve`.
        """
        return self.lu.solve(np.asarray(b).astype(self.dtype, copy=False))


def _build_precision_lu(grid: Grid, omega: float, eps_r: np.ndarray, dtype):
    """Factor ``A(eps_r)`` in ``dtype``: plain SuperLU at fp64, equilibrated below."""
    dtype = precision_dtype(dtype)
    matrix = assemble_system_matrix(grid, omega, eps_r)
    if dtype == np.dtype(np.complex128):
        return factor_lu(matrix)
    row_max = np.abs(matrix).max(axis=1).toarray().ravel()
    row_scale = 1.0 / np.maximum(row_max, np.finfo(np.float64).tiny)
    scaled = sp.diags(row_scale) @ matrix
    return _PrecisionLU(factor_lu(scaled.astype(dtype)), row_scale)


def _factor_apply(entry):
    """A ``b -> approx A^{-1} b`` callable from a live or store-mapped entry.

    Live :class:`_PrecisionLU` objects (and exact SuperLUs) already apply
    their own equilibration.  Store-mapped reduced-precision artifacts hold
    the *equilibrated* factors with the scale riding as the ``row_scale``
    extra, so the scale is re-applied around the mapped triangular solves
    here.  Accepts both 1-D and column-matrix right-hand sides, like
    ``SuperLU.solve``.
    """
    extras = getattr(entry, "extras", None) or {}
    row_scale = extras.get("row_scale") if getattr(entry, "from_store", False) else None
    if row_scale is None:
        return entry.solve
    row_scale = np.asarray(row_scale, dtype=np.float64).ravel()

    def apply(b: np.ndarray) -> np.ndarray:
        b = np.asarray(b)
        scaled = row_scale[:, None] * b if b.ndim == 2 else row_scale * b
        return entry.solve(scaled)

    return apply


class RefinementError(RuntimeError):
    """Iterative refinement stopped contracting or ran out of sweeps."""


def iterative_refine(
    apply_inverse,
    rhs: np.ndarray,
    rtol: float,
    max_sweeps: int,
    matrix: sp.spmatrix | None = None,
    delta: np.ndarray | None = None,
    x0: np.ndarray | None = None,
) -> tuple[np.ndarray, int, int]:
    """Iterative refinement of a flat RHS stack ``(n_rhs, n)`` to ``rtol``.

    The Wilkinson loop behind every "factor once, refine cheaply" tier::

        x += M^{-1} r        # correction through an approximate LU M ~ A
        r  = b - A x         # residual update

    until every ``||r|| <= rtol * max(||b||, tiny)``.  ``apply_inverse``
    takes a column matrix (``(n, k)``) like ``SuperLU.solve``; the whole
    active stack sweeps together through one multi-RHS call.  The residual
    update is the only variation:

    * ``delta`` given — ``A = M + diag(delta)`` with ``M`` an *exact* fp64
      LU, so the residual follows the matvec-free recurrence
      ``r <- -delta * correction`` (the recycled tier's diagonal drift);
    * otherwise — the true fp64 residual ``b - A x`` through ``matrix`` (one
      sparse matvec per sweep), required whenever ``M`` carries its own
      factorization error (reduced-precision LUs).

    ``matrix`` is also needed to start from a warm guess ``x0``.  Returns
    ``(x, sweeps, back_substitutions)``.  Raises :class:`RefinementError`
    as soon as any active row fails to contract, or when the sweep budget
    runs out — callers either propagate it (never silently degraded fields)
    or escalate to a stronger solver.
    """
    flat = np.asarray(rhs, dtype=np.complex128)
    if flat.ndim != 2:
        raise ValueError(f"rhs must be a flat stack (n_rhs, n); got shape {flat.shape}")
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
        if delta is not None:
            new_residual = -delta[None, :] * correction
        else:
            new_residual = flat[rows] - (matrix @ x[rows].T).T
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

        sim = Simulation(grid, eps_r, wavelength, ports, engine="iterative")
        problem = InverseDesignProblem(device, engine="recycled")
        config = GeneratorConfig(engine={"low": "iterative", "high": "direct"})

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
            digest = hashlib.sha1(eps_fingerprint(self._exterior_eps).encode())
            digest.update(repr(design_region).encode())
            self._exterior_fingerprint = digest.hexdigest()

    @property
    def fidelity_signature(self) -> tuple:
        # Exact solves: results depend only on the operator, so every exact
        # engine (direct or recycled) may share cached results.
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


class IterativeEngine(SolverEngine):
    """Approximate Krylov solves preconditioned with an incomplete LU.

    The cheap low-fidelity tier: the ILU factorization is much sparser (and
    faster to compute) than the exact LU, and the Krylov iteration stops at a
    configurable residual tolerance.  The preconditioner is cached exactly
    like the direct factorization, so batches still pay assembly and ILU once.
    """

    name = "iterative"
    supports_warm_start = True

    def __init__(
        self,
        method: str = "bicgstab",
        rtol: float = 1e-8,
        maxiter: int = 2000,
        drop_tol: float = 1e-5,
        fill_factor: float = 20.0,
        cache: FactorizationCache | None = None,
    ):
        if method not in ("bicgstab", "gmres"):
            raise ValueError(f"unknown Krylov method {method!r}; expected bicgstab or gmres")
        self.method = method
        self.rtol = float(rtol)
        self.maxiter = int(maxiter)
        self.drop_tol = float(drop_tol)
        self.fill_factor = float(fill_factor)
        self.cache = cache if cache is not None else default_factorization_cache

    @property
    def fidelity_signature(self) -> tuple:
        # Approximate solves: results depend on the Krylov configuration, so
        # only identically-configured iterative engines may share them.
        return (self.name, self.method, self.rtol, self.maxiter)

    def _prepare(self, grid, omega, eps_r, fingerprint):
        if fingerprint is None:
            fingerprint = eps_fingerprint(eps_r)

        def build():
            matrix = assemble_system_matrix(grid, omega, eps_r).tocsc()
            ilu = spla.spilu(matrix, drop_tol=self.drop_tol, fill_factor=self.fill_factor)
            return matrix, ilu

        return self.cache.get_or_build(grid, omega, fingerprint, build, tag="iterative")

    def solve_batch(self, grid, omega, eps_r, rhs, fingerprint=None, x0=None):
        eps_r, rhs = self._check_batch(grid, eps_r, rhs)
        matrix, ilu = self._prepare(grid, omega, eps_r, fingerprint)
        preconditioner = spla.LinearOperator(matrix.shape, ilu.solve, dtype=complex)
        krylov = spla.bicgstab if self.method == "bicgstab" else spla.gmres
        solutions = np.empty_like(rhs)
        for index, b in enumerate(rhs.reshape(rhs.shape[0], -1)):
            guess = None if x0 is None else np.asarray(x0[index], dtype=complex).ravel()
            x, info = krylov(
                matrix, b, x0=guess, rtol=self.rtol, maxiter=self.maxiter, M=preconditioner
            )
            if info > 0:
                raise RuntimeError(
                    f"{self.method} did not converge to rtol={self.rtol} within "
                    f"{self.maxiter} iterations (rhs {index})"
                )
            if info < 0:
                raise RuntimeError(f"{self.method} failed with illegal input (info={info})")
            solutions[index] = x.reshape(grid.shape)
        return solutions


@dataclass
class RefineStats(StatsCounters):
    """What a :class:`RefinedEngine` actually did, for tests and benchmarks."""

    factorizations: int = 0
    solves: int = 0
    sweeps: int = 0
    back_substitutions: int = 0


class RefinedEngine(SolverEngine):
    """Mixed-precision tier: reduced-precision LU, fp64 iterative refinement.

    The factorization — the expensive, memory-bound step of a direct solve —
    runs in complex64 (on a row-equilibrated operator, see
    :class:`_PrecisionLU`), which stores ~0.6x the fp64 factor bytes (the
    complex values halve, their indices do not) and can cut factorization
    time.  Full fp64 accuracy is then recovered by
    :func:`iterative_refine` on the true fp64 residual: each sweep is one
    multi-RHS fp32 back-substitution plus one fp64 sparse matvec, and the
    loop terminates on the fp64 relative residual, so results match
    :class:`DirectEngine` to ``rtol``.  A stalled or exhausted refinement
    raises :class:`RefinementError` — a converged-or-raise contract, never
    silent fp32 fields.

    ``precision="fp64"`` degenerates to an exact direct solve (the first
    sweep's residual meets any reasonable ``rtol``), which is what makes the
    precision knob safe to plumb through configs unconditionally.

    Factorizations live in the shared :class:`FactorizationCache` under the
    dtype-suffixed tag (``"refined-complex64"``), so fp32 and fp64 LUs of the
    same operator never collide, in memory or in a
    :class:`~repro.service.FileFactorizationStore` directory.
    """

    name = "refined"
    supports_warm_start = True

    def __init__(
        self,
        precision: str = "fp32",
        rtol: float = 1e-10,
        max_sweeps: int = 20,
        cache: FactorizationCache | None = None,
    ):
        self.dtype = precision_dtype(precision)
        self.rtol = float(rtol)
        self.max_sweeps = int(max_sweeps)
        self.cache = cache if cache is not None else default_factorization_cache
        self.stats = RefineStats()
        self._tag = dtype_cache_tag("refined", self.dtype)

    @property
    def fidelity_signature(self) -> tuple:
        # Refined solves are rtol-converged in fp64: results depend on the
        # factor dtype and the refinement tolerance, nothing per-instance.
        return (self.name, self.dtype.name, self.rtol)

    def factorize(
        self, grid: Grid, omega: float, eps_r: np.ndarray, fingerprint: str | None = None
    ):
        """The reduced-precision LU, shared (and persisted) through the cache."""
        if fingerprint is None:
            fingerprint = eps_fingerprint(eps_r)
        built: list = []

        def build():
            self.stats.factorizations += 1
            built.append(_build_precision_lu(grid, omega, eps_r, self.dtype))
            return built[-1]

        def payload():
            # Only invoked when a publish follows a fresh build; the
            # equilibration scale must travel with the equilibrated factors.
            if built and isinstance(built[-1], _PrecisionLU):
                return {"row_scale": built[-1].row_scale}
            return None

        return self.cache.get_or_build(
            grid, omega, fingerprint, build, tag=self._tag, store_payload=payload
        )

    def solve_batch(self, grid, omega, eps_r, rhs, fingerprint=None, x0=None):
        eps_r, rhs = self._check_batch(grid, eps_r, rhs)
        if fingerprint is None:
            fingerprint = eps_fingerprint(eps_r)
        entry = self.factorize(grid, omega, eps_r, fingerprint)
        matrix = assemble_system_matrix(grid, omega, eps_r)
        flat = rhs.reshape(rhs.shape[0], -1)
        guess = None if x0 is None else np.asarray(x0, dtype=complex).reshape(flat.shape)
        x, sweeps, back_substitutions = iterative_refine(
            _factor_apply(entry),
            flat,
            self.rtol,
            self.max_sweeps,
            matrix=matrix,
            x0=guess,
        )
        self.stats.solves += rhs.shape[0]
        self.stats.sweeps += sweeps
        self.stats.back_substitutions += back_substitutions
        return x.reshape(rhs.shape)


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


class RecycledEngine(SolverEngine):
    """Exact-LU-preconditioned Krylov solves recycled across nearby operators.

    The optimization-loop tier.  Every Adam step of an inverse-design run
    changes ``eps_r``, so content-keyed factorization caching never hits and
    each iteration would pay a fresh SuperLU factorization.  But consecutive
    operators differ only on the diagonal (``A(eps + d) = A(eps) +
    omega^2 eps0 diag(d)``), which makes the *previous* factorization an
    excellent preconditioner.  The default ``method="auto"`` solve chain is

    1. diagonal-update iterative refinement (:func:`iterative_refine`) —
       each sweep is one back-substitution against the reference LU plus an
       elementwise product (the diagonal structure of the perturbation makes
       the residual recurrence matvec-free), vectorized over the RHS stack;
    2. BiCGStab/GMRES preconditioned with the same reference LU when
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

    A recycled solve that fails to converge falls back to refactorization, so
    results are always converged to ``rtol`` (or exact).  Warm starts
    (``x0``, threaded from a :class:`SolveWorkspace`) cut the iteration count
    further.  Reference LUs live in the shared :class:`FactorizationCache`
    under the ``"recycled"`` tag, so ``Simulation.set_permittivity`` eviction
    and cache-size limits apply to them like to any other factorization.

    ``precision="fp32"`` factors the reference LUs in complex64 (see
    :class:`RefinedEngine`): cheaper and smaller factorizations at the cost
    of extra refinement sweeps, with every path still converging on the true
    fp64 residual to ``rtol`` — exact-fingerprint hits included, which are a
    single back-substitution only at full precision.  fp32 references are
    cached and persisted under a dtype-suffixed tag so they never collide
    with fp64 ones.
    """

    name = "recycled"
    supports_warm_start = True

    def __init__(
        self,
        method: str = "auto",
        rtol: float = 1e-6,
        maxiter: int = 200,
        max_sweeps: int = 16,
        drift_threshold: float = 0.1,
        max_krylov: int = 6,
        max_references: int = 4,
        precision: str = "fp64",
        cache: FactorizationCache | None = None,
    ):
        if method not in ("auto", "bicgstab", "gmres"):
            raise ValueError(
                f"unknown method {method!r}; expected auto, bicgstab or gmres"
            )
        if max_references < 1:
            raise ValueError(f"max_references must be at least 1, got {max_references}")
        self.method = method
        self.rtol = float(rtol)
        self.maxiter = int(maxiter)
        self.max_sweeps = int(max_sweeps)
        self.drift_threshold = float(drift_threshold)
        self.max_krylov = int(max_krylov)
        self.max_references = int(max_references)
        self.dtype = precision_dtype(precision)
        self._tag = dtype_cache_tag("recycled", self.dtype)
        self.cache = cache if cache is not None else default_factorization_cache
        self._references: dict[tuple, OrderedDict[str, _RecycledReference]] = {}
        self._scratch: dict[tuple, sp.csr_matrix] = {}
        self.stats = RecycleStats()

    @property
    def fidelity_signature(self) -> tuple:
        # Recycled solves are exact on reference hits but rtol-converged in
        # between; identically-configured recycled engines may share results.
        # The factor dtype extends the signature only off the fp64 default,
        # so existing fp64 result-cache keys stay stable.
        if self.dtype == np.dtype(np.complex128):
            return (self.name, self.method, self.rtol)
        return (self.name, self.method, self.rtol, self.dtype.name)

    # -- reference bookkeeping --------------------------------------------------
    def _lu(self, grid: Grid, omega: float, reference: _RecycledReference):
        """The reference LU, shared (and evictable) through the cache.

        Counting factorizations here (not in :meth:`_refactorize`) keeps the
        stats truthful when an evicted reference LU has to be rebuilt.
        """
        built: list = []

        def build():
            self.stats.factorizations += 1
            built.append(_build_precision_lu(grid, omega, reference.eps, self.dtype))
            return built[-1]

        def payload():
            # The reference permittivity travels with the published LU so
            # other processes can adopt the reference itself (see
            # warm_from_store); reduced-precision factors also need their
            # equilibration scale.
            extras = {"eps": reference.eps}
            if built and isinstance(built[-1], _PrecisionLU):
                extras["row_scale"] = built[-1].row_scale
            return extras

        return self.cache.get_or_build(
            grid,
            omega,
            reference.fingerprint,
            build,
            tag=self._tag,
            store_payload=payload,
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
            grid, omega, tag=self._tag, name="eps", limit=budget
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

    def _system_matrix(self, grid: Grid, omega: float, eps_r: np.ndarray) -> sp.csr_matrix:
        """The current operator, diagonal refreshed in place per solve."""
        key = (grid, float(omega))
        scratch = self._scratch.get(key)
        if scratch is None:
            self._scratch[key] = scratch = assemble_system_matrix(grid, omega, eps_r)
            return scratch
        return update_system_diagonal(scratch, grid, omega, eps_r)

    @staticmethod
    def _back_substitute(lu: spla.SuperLU, rhs: np.ndarray) -> np.ndarray:
        solutions = lu.solve(rhs.reshape(rhs.shape[0], -1).T)
        return np.ascontiguousarray(solutions.T).reshape(rhs.shape)

    def _reference_solve(
        self, grid: Grid, omega: float, reference: _RecycledReference, rhs: np.ndarray
    ) -> np.ndarray:
        """Solve at the reference permittivity itself against its own LU.

        At fp64 this is one exact back-substitution.  With a reduced-precision
        reference LU a bare back-substitution only carries fp32 accuracy, so
        the solution is refined against the true fp64 operator to ``rtol`` —
        the contract (converged or exact) is precision-independent.
        """
        entry = self._lu(grid, omega, reference)
        if self.dtype == np.dtype(np.complex128):
            return self._back_substitute(entry, rhs)
        x, _, back_substitutions = iterative_refine(
            _factor_apply(entry),
            rhs.reshape(rhs.shape[0], -1),
            self.rtol,
            self.max_sweeps,
            matrix=self._system_matrix(grid, omega, reference.eps),
        )
        self.stats.krylov_iterations += back_substitutions
        return x.reshape(rhs.shape)

    def _refactorize(
        self,
        references: OrderedDict[str, _RecycledReference],
        grid: Grid,
        omega: float,
        eps_r: np.ndarray,
        fingerprint: str,
        rhs: np.ndarray,
    ) -> np.ndarray:
        reference = _RecycledReference(fingerprint, eps_r)
        references[fingerprint] = reference
        while len(references) > self.max_references:
            stale_fp, _ = references.popitem(last=False)
            self.cache.evict(grid, omega, stale_fp, tag=self._tag)
        return self._reference_solve(grid, omega, reference, rhs)

    def _krylov_solve(
        self,
        grid: Grid,
        omega: float,
        eps_r: np.ndarray,
        rhs: np.ndarray,
        reference: _RecycledReference,
        x0: np.ndarray | None,
    ) -> tuple[np.ndarray | None, float]:
        """LU-preconditioned BiCGStab/GMRES; ``(None, inf)`` on non-convergence."""
        matrix = self._system_matrix(grid, omega, eps_r)
        lu = self._lu(grid, omega, reference)
        preconditioner = spla.LinearOperator(matrix.shape, _factor_apply(lu), dtype=complex)
        method = "gmres" if self.method == "gmres" else "bicgstab"
        solutions = np.empty_like(rhs)
        worst = 0
        for index, b in enumerate(rhs.reshape(rhs.shape[0], -1)):
            iterations = [0]

            def callback(_):
                iterations[0] += 1

            guess = None if x0 is None else np.asarray(x0[index], dtype=complex).ravel()
            if method == "bicgstab":
                x, info = spla.bicgstab(
                    matrix, b, x0=guess, rtol=self.rtol, maxiter=self.maxiter,
                    M=preconditioner, callback=callback,
                )
            else:
                x, info = spla.gmres(
                    matrix, b, x0=guess, rtol=self.rtol, maxiter=self.maxiter,
                    M=preconditioner, callback=callback, callback_type="pr_norm",
                )
            if info != 0:
                return None, float("inf")
            solutions[index] = x.reshape(grid.shape)
            self.stats.krylov_iterations += iterations[0]
            worst = max(worst, iterations[0])
        return solutions, float(worst)

    def _recycled_solve(
        self,
        grid: Grid,
        omega: float,
        eps_r: np.ndarray,
        rhs: np.ndarray,
        reference: _RecycledReference,
        x0: np.ndarray | None,
    ) -> tuple[np.ndarray | None, float]:
        """The recycled path: cheap refinement first, Krylov as the fallback.

        ``A = A_ref + diag(delta)`` with ``delta = omega^2 eps0 (eps - eps_ref)``,
        so refinement against an exact fp64 reference LU runs the matvec-free
        residual recurrence and converges linearly at rate
        ``rho(A_ref^{-1} diag(delta))``.  A reduced-precision reference LU
        carries its own factorization error, so refinement then tracks the
        true fp64 residual instead.  Either way a stall or the sweep cap
        escalates to Krylov against the same LU.
        """
        if self.method == "auto":
            lu = self._lu(grid, omega, reference)
            exact_lu = self.dtype == np.dtype(np.complex128)
            matrix = None
            if not exact_lu or x0 is not None:
                matrix = self._system_matrix(grid, omega, eps_r)
            delta = None
            if exact_lu:
                delta = (
                    omega**2 * EPSILON_0 * (eps_r.ravel() - reference.eps.ravel())
                ).astype(complex)
            try:
                x, sweeps, back_substitutions = iterative_refine(
                    _factor_apply(lu),
                    rhs.reshape(rhs.shape[0], -1),
                    self.rtol,
                    self.max_sweeps,
                    matrix=matrix,
                    delta=delta,
                    x0=x0,
                )
            except RefinementError:
                pass
            else:
                self.stats.krylov_iterations += back_substitutions
                return x.reshape(rhs.shape), float(sweeps)
        return self._krylov_solve(grid, omega, eps_r, rhs, reference, x0)

    # -- the solve ---------------------------------------------------------------
    def solve_batch(self, grid, omega, eps_r, rhs, fingerprint=None, x0=None):
        eps_r, rhs = self._check_batch(grid, eps_r, rhs)
        if fingerprint is None:
            fingerprint = eps_fingerprint(eps_r)
        references = self._references.setdefault((grid, float(omega)), OrderedDict())

        reference = references.get(fingerprint)
        if reference is not None:
            # Exact fingerprint match (e.g. the unchanged normalization
            # waveguide): a pure back-substitution at fp64 (exact like
            # DirectEngine), refined to rtol at reduced precision.
            references.move_to_end(fingerprint)
            self.stats.exact_solves += 1
            return self._reference_solve(grid, omega, reference, rhs)

        reference, drift = self._nearest_reference(references, eps_r)
        if (
            reference is None
            or drift > self.drift_threshold
            or reference.last_iterations > self.max_krylov
        ):
            return self._refactorize(references, grid, omega, eps_r, fingerprint, rhs)

        solutions, iterations = self._recycled_solve(grid, omega, eps_r, rhs, reference, x0)
        if solutions is None:
            # Neither refinement nor Krylov converged: the reference no longer
            # preconditions well.  Refactorize at the current permittivity —
            # the result stays exact.
            self.stats.fallbacks += 1
            reference.last_iterations = float("inf")
            return self._refactorize(references, grid, omega, eps_r, fingerprint, rhs)
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


def selects_direct(engine) -> bool:
    """Whether an engine argument selects the plain exact tier.

    True for None and for any registry alias of :class:`DirectEngine`
    (``"direct"``, ``"superlu"``, ``"high"``); False for engine instances
    and every other name.
    """
    if engine is None:
        return True
    if not isinstance(engine, str):
        return False
    key, spec = split_engine_name(engine)
    return spec is None and _ENGINE_FACTORIES.get(key) is DirectEngine


def make_engine(name: str, **kwargs) -> SolverEngine:
    """Instantiate a solver engine by name.

    ``"direct"``/``"high"`` build the exact :class:`DirectEngine`,
    ``"iterative"``/``"low"``/``"bicgstab"``/``"gmres"`` the approximate
    :class:`IterativeEngine`, ``"recycled"`` the optimization-loop
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
register_engine("iterative", IterativeEngine)
register_engine("low", IterativeEngine)
register_engine("bicgstab", lambda **kw: IterativeEngine(method="bicgstab", **kw))
register_engine("gmres", lambda **kw: IterativeEngine(method="gmres", **kw))
register_engine("recycled", RecycledEngine)
register_engine("refined", RefinedEngine)
