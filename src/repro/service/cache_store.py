"""Cross-process factorization store: memory-mapped LU artifacts on disk.

The process-wide :class:`~repro.fdfd.engine.FactorizationCache` keeps
factorizations alive for the life of *one* process.  A fleet of clients (or
the generation worker pool) hitting the same foundry-PDK devices re-factorizes
identical operators in every process — the factorization is content-addressed
(``(grid, omega, eps fingerprint)``) but the cache is not shared.

:class:`FileFactorizationStore` closes that gap.  A store is a directory of
self-describing binary artifacts, one per ``(grid, omega, eps fingerprint,
tag)`` key, holding the triangular factors and permutations of a SuperLU
factorization as raw, alignment-padded buffers.  Loading memory-maps the
buffers (``np.memmap``), so

* a fresh process pays two sparse triangular solves per right-hand side
  (a few ms) instead of a full refactorization (hundreds of ms), and
* concurrent processes mapping the same artifact share one copy of the
  factors through the OS page cache — the "cache fabric".

Three properties make the store safe to share:

* **Atomic publish** — artifacts are written to a same-directory temp file
  and ``os.replace``\\ d into place, so readers never observe a partial file
  and concurrent writers of one key cannot clobber each other (last complete
  write wins; both are equivalent, the key is content-addressed).
* **Fail-soft loads** — a corrupt, truncated or version-skewed artifact is
  reported as a miss, never an error: the caller falls back to a fresh
  factorization.  Structural checks (magic, declared sizes vs file size) are
  backed by a *probe solve*: every artifact carries the solution of a
  fingerprint-seeded random right-hand side computed by the original
  factorization, and a load replays it through the reconstructed factors.
* **Publish-time self-check** — the same probe is verified before anything is
  written, so a factorization whose factors do not round-trip (e.g. a future
  SciPy that applies non-trivial equilibration scalings SuperLU does not
  expose) is declined rather than published wrong.

The store is engine-agnostic at the key level but only knows how to persist
SuperLU-like objects (``L``/``U``/``perm_r``/``perm_c`` — the ``"direct"``
and ``"recycled"`` cache tags); entries it cannot persist (anything without
those factors) are declined, which the cache treats as "store not
applicable".  Artifacts may carry extra arrays: the recycled tier
publishes its reference permittivity alongside the LU, which is what lets a
fresh process adopt recycled references (see
:meth:`~repro.fdfd.engine.RecycledEngine` and :meth:`list_extras`).
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import threading
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.utils import faults

logger = logging.getLogger(__name__)

__all__ = [
    "FileFactorizationStore",
    "StoreStats",
    "StoredFactorization",
    "default_store_budget_bytes",
]

_MAGIC = b"RFSTORE1"
_FORMAT_VERSION = 1
_ALIGN = 64

#: Norm-wise relative tolerance of the probe-solve validation.  The
#: reconstruction is mathematically exact (``L @ U == Pr A Pc`` to machine
#: precision), but the Maxwell operator's conditioning amplifies
#: triangular-solve rounding: genuine artifacts reproduce the native solution
#: to ~1e-5 norm-wise on realistic devices.  Corruption, truncation or a
#: convention drift produce O(1)-or-worse errors, so 1e-3 separates the two
#: cleanly.
_PROBE_RTOL = 1e-3


def _probe_matches(candidate: np.ndarray, expected: np.ndarray) -> bool:
    scale = float(np.linalg.norm(expected))
    if scale == 0.0 or not np.isfinite(scale):  # pragma: no cover - degenerate
        return bool(np.allclose(candidate, expected))
    return float(np.linalg.norm(np.asarray(candidate) - expected)) <= _PROBE_RTOL * scale


def default_store_budget_bytes() -> int:
    """Disk budget of a store directory (``REPRO_FACTORIZATION_STORE_BYTES``).

    When publishing pushes the directory past the budget, the oldest artifacts
    (by mtime) are pruned best-effort.  Default 1 GiB; ``0`` disables pruning.
    """
    return int(os.environ.get("REPRO_FACTORIZATION_STORE_BYTES", str(1 << 30)))


@dataclass
class StoreStats:
    """What a :class:`FileFactorizationStore` did, for benchmarks and tests."""

    hits: int = 0
    misses: int = 0
    #: Artifacts that existed but failed validation (corrupt/truncated/stale
    #: format) and were treated as misses.
    failures: int = 0
    publishes: int = 0
    #: Publish attempts declined (unsupported entry type, failed self-check,
    #: or disk I/O errors while writing — the store is always fail-soft).
    declined: int = 0
    #: Corrupt artifacts renamed to ``*.bad`` so they are probed exactly once.
    quarantined: int = 0
    pruned: int = 0
    bytes_written: int = 0
    bytes_mapped: int = 0

    def as_dict(self) -> dict:
        return {k: int(v) for k, v in self.__dict__.items()}


class StoreArtifactError(ValueError):
    """An artifact failed structural or probe validation (treated as a miss)."""


def _probe_rhs(fingerprint: str, n: int) -> np.ndarray:
    """Deterministic probe right-hand side derived from the operator key."""
    seed = int(hashlib.sha1(fingerprint.encode()).hexdigest()[:16], 16)
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


class StoredFactorization:
    """A factorization reconstructed from persisted triangular factors.

    Exposes the same ``solve`` contract as ``scipy.sparse.linalg.SuperLU``
    (1-D or ``(n, k)`` right-hand sides), built from memory-mapped CSR
    factors: ``x = Pc (U^{-1} (L^{-1} (Pr b)))`` with the SciPy SuperLU
    permutation convention ``A = Pr^T L U Pc^T``.  Solves cost two sparse
    triangular substitutions — a few ms against the ~100× more expensive
    refactorization the store exists to avoid (exact same solution up to
    floating-point op order).
    """

    __slots__ = ("L", "U", "perm_r", "perm_c", "shape", "nnz", "nbytes", "extras")

    #: Cache fall-through uses this to avoid re-publishing a loaded artifact.
    from_store = True

    def __init__(self, L, U, perm_r, perm_c, nbytes=0, extras=None):
        self.L = L
        self.U = U
        self.perm_r = np.asarray(perm_r)
        self.perm_c = np.asarray(perm_c)
        self.shape = L.shape
        self.nnz = int(L.nnz + U.nnz)
        self.nbytes = int(nbytes)
        self.extras = extras or {}

    @classmethod
    def from_superlu(cls, lu) -> "StoredFactorization":
        """Snapshot a live SuperLU object into reconstructable factors."""
        L = lu.L.tocsr()
        U = lu.U.tocsr()
        L.sort_indices()
        U.sort_indices()
        nbytes = sum(
            arr.nbytes
            for mat in (L, U)
            for arr in (mat.data, mat.indices, mat.indptr)
        )
        return cls(L, U, lu.perm_r, lu.perm_c, nbytes=nbytes)

    def solve(self, b: np.ndarray) -> np.ndarray:
        b = np.asarray(b, dtype=complex)
        z = np.empty_like(b)
        z[self.perm_r] = b
        y = spla.spsolve_triangular(self.L, z, lower=True, unit_diagonal=True)
        w = spla.spsolve_triangular(self.U, y, lower=False)
        return w[self.perm_c]


def _tag_safe(tag: str) -> str:
    safe = "".join(c if c.isalnum() or c in "-_" else "_" for c in tag)
    return safe or "entry"


def _grid_token(grid) -> str:
    """Stable textual identity of a grid (content, not object id)."""
    return f"{grid.nx}x{grid.ny}:dl={float(grid.dl)!r}:npml={grid.npml}"


class FileFactorizationStore:
    """Directory-backed factorization store shared across processes.

    Parameters
    ----------
    directory:
        Store directory (created on first publish).  Processes pointing at the
        same directory share artifacts; ``REPRO_FACTORIZATION_STORE=<dir>``
        attaches one to the default factorization cache everywhere.
    budget_bytes:
        Disk budget; publishing past it prunes the oldest artifacts
        (default :func:`default_store_budget_bytes`, ``0`` = unlimited).
    validate:
        Run the probe-solve validation on every load (default True).  The
        probe costs one back-substitution — noise against the factorization
        it replaces — and is the end-to-end guarantee that a mapped artifact
        solves the operator it claims to.
    """

    def __init__(
        self,
        directory: str | Path,
        budget_bytes: int | None = None,
        validate: bool = True,
    ):
        self.directory = Path(directory)
        self.budget_bytes = (
            default_store_budget_bytes() if budget_bytes is None else int(budget_bytes)
        )
        self.validate = bool(validate)
        self.stats = StoreStats()
        self._lock = threading.Lock()

    # -- keys ------------------------------------------------------------------
    def _operator_digest(self, grid, omega: float) -> str:
        payload = f"{_grid_token(grid)}|omega={float(omega)!r}"
        return hashlib.sha1(payload.encode()).hexdigest()[:12]

    def path_for(self, grid, omega: float, fingerprint: str, tag: str) -> Path:
        """Artifact path for one cache key (content-addressed file name)."""
        digest = self._operator_digest(grid, omega)
        return self.directory / f"{_tag_safe(tag)}-{digest}-{fingerprint}.fact"

    # -- publish ---------------------------------------------------------------
    def publish(
        self,
        grid,
        omega: float,
        fingerprint: str,
        tag: str,
        entry,
        extras: dict[str, np.ndarray] | None = None,
    ) -> bool:
        """Persist a factorization; returns False when declined.

        Only SuperLU-like entries (``L``/``U``/``perm_r``/``perm_c`` with a
        working ``solve``) are publishable; the factors must pass the probe
        self-check before anything touches disk.  Entries that came *from*
        the store are never re-published.
        """
        if getattr(entry, "from_store", False):
            return False
        for attr in ("L", "U", "perm_r", "perm_c", "solve"):
            if not hasattr(entry, attr):
                with self._lock:
                    self.stats.declined += 1
                return False
        try:
            snapshot = StoredFactorization.from_superlu(entry)
            dtype = np.dtype(snapshot.L.dtype)
            n = snapshot.shape[0]
            probe_b = _probe_rhs(fingerprint, n)
            probe_x = np.asarray(entry.solve(probe_b))
            rebuilt = snapshot.solve(probe_b)
            if not _probe_matches(rebuilt, probe_x):
                raise StoreArtifactError("factor snapshot does not reproduce solves")
        except Exception:
            with self._lock:
                self.stats.declined += 1
            return False

        arrays: dict[str, np.ndarray] = {
            "L_data": snapshot.L.data,
            "L_indices": snapshot.L.indices,
            "L_indptr": snapshot.L.indptr,
            "U_data": snapshot.U.data,
            "U_indices": snapshot.U.indices,
            "U_indptr": snapshot.U.indptr,
            "perm_r": snapshot.perm_r,
            "perm_c": snapshot.perm_c,
            "probe_x": probe_x.astype(np.complex128),
        }
        for name, array in (extras or {}).items():
            arrays[f"extra_{name}"] = np.ascontiguousarray(array)

        path = self.path_for(grid, omega, fingerprint, tag)
        try:
            faults.on_store_op("publish")
            written = self._write_artifact(path, arrays, n=n, dtype=dtype)
        except OSError as error:
            # Disk full, permissions, injected faults: the store is an
            # accelerator, never a correctness dependency — decline and let
            # the caller keep its in-memory factorization.
            logger.warning("factorization store publish failed for %s: %s", path.name, error)
            with self._lock:
                self.stats.declined += 1
            return False
        with self._lock:
            self.stats.publishes += 1
            self.stats.bytes_written += written
        self._prune()
        return True

    def _write_artifact(
        self, path: Path, arrays: dict[str, np.ndarray], n: int, dtype=None
    ) -> int:
        self.directory.mkdir(parents=True, exist_ok=True)
        header: dict = {"version": _FORMAT_VERSION, "n": int(n), "arrays": {}}
        if dtype is not None:
            # The factor dtype, declared for readers of the artifact (absent
            # in the oldest artifacts, which are all complex128).
            header["dtype"] = np.dtype(dtype).name
        # Lay the segments out first so the header can declare absolute
        # offsets and the total size (the structural truncation check).
        segments: list[tuple[str, np.ndarray]] = []
        cursor = 0  # filled in after the header is serialized
        for name, array in arrays.items():
            array = np.ascontiguousarray(array)
            header["arrays"][name] = {
                "dtype": array.dtype.str,
                "shape": list(array.shape),
                "nbytes": int(array.nbytes),
            }
            segments.append((name, array))
        header_blob = b""
        for _ in range(2):  # header size depends on offsets: fix-point in 2 passes
            cursor = len(_MAGIC) + 8 + len(header_blob)
            for name, array in segments:
                cursor = -(-cursor // _ALIGN) * _ALIGN  # align up
                header["arrays"][name]["offset"] = cursor
                cursor += array.nbytes
            header["total_size"] = cursor
            blob = json.dumps(header, sort_keys=True).encode("utf-8")
            if len(blob) == len(header_blob):
                header_blob = blob
                break
            header_blob = blob

        tmp = path.with_name(f".{path.name}.tmp-{os.getpid()}-{threading.get_ident()}")
        try:
            with open(tmp, "wb") as fh:
                fh.write(_MAGIC)
                fh.write(len(header_blob).to_bytes(8, "little"))
                fh.write(header_blob)
                for name, array in segments:
                    offset = header["arrays"][name]["offset"]
                    fh.write(b"\x00" * (offset - fh.tell()))
                    fh.write(array.tobytes())
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)  # atomic publish: readers never see partials
        finally:
            if tmp.exists():  # pragma: no cover - only on a failed write
                tmp.unlink(missing_ok=True)
        return int(header["total_size"])

    # -- load ------------------------------------------------------------------
    def load(self, grid, omega: float, fingerprint: str, tag: str):
        """Map an artifact back into a solvable factorization, or None.

        Every failure mode — missing file, bad magic, truncation, probe
        mismatch — is a miss; the caller factorizes fresh.  An artifact that
        fails *structural or probe* validation is quarantined (renamed to
        ``*.bad`` and logged once) so the same corpse is never re-mapped and
        re-probe-failed on every subsequent miss of its fingerprint; plain
        I/O errors (e.g. a concurrent pruner unlinking mid-read) are
        transient and leave the file alone.
        """
        path = self.path_for(grid, omega, fingerprint, tag)
        try:
            faults.on_store_op("load")
            entry = self._read_artifact(path, fingerprint)
        except FileNotFoundError:
            with self._lock:
                self.stats.misses += 1
            return None
        except OSError:
            with self._lock:
                self.stats.failures += 1
                self.stats.misses += 1
            return None
        except (StoreArtifactError, ValueError, KeyError, json.JSONDecodeError) as error:
            with self._lock:
                self.stats.failures += 1
                self.stats.misses += 1
            self._quarantine(path, error)
            return None
        with self._lock:
            self.stats.hits += 1
            self.stats.bytes_mapped += entry.nbytes
        return entry

    def _quarantine(self, path: Path, error: Exception) -> None:
        """Move a corrupt artifact to ``<name>.bad`` (best-effort).

        The quarantined file no longer matches the ``*.fact`` glob, so
        enumeration, pruning and later loads never touch it again — the next
        miss of this fingerprint goes straight to a fresh factorization
        instead of re-mapping and re-probe-failing the same bytes.  Logged
        once per artifact: the rename removes what would trigger the next
        log line.
        """
        target = path.with_name(path.name + ".bad")
        try:
            os.replace(path, target)
        except OSError:  # pragma: no cover - racing unlink / readonly dir
            return
        with self._lock:
            self.stats.quarantined += 1
        logger.warning(
            "quarantined corrupt factorization artifact %s -> %s (%s)",
            path.name,
            target.name,
            error,
        )

    def _read_header(self, path: Path) -> dict:
        with open(path, "rb") as fh:
            if fh.read(len(_MAGIC)) != _MAGIC:
                raise StoreArtifactError(f"{path} is not a factorization artifact")
            header_len = int.from_bytes(fh.read(8), "little")
            if header_len <= 0 or header_len > (1 << 24):
                raise StoreArtifactError(f"{path} header length {header_len} is implausible")
            header = json.loads(fh.read(header_len).decode("utf-8"))
        if header.get("version") != _FORMAT_VERSION:
            raise StoreArtifactError(
                f"{path} has format version {header.get('version')!r}"
            )
        if path.stat().st_size != header["total_size"]:
            raise StoreArtifactError(f"{path} is truncated or over-long")
        return header

    def _map_array(self, path: Path, meta: dict) -> np.memmap:
        return np.memmap(
            path,
            mode="r",
            dtype=np.dtype(meta["dtype"]),
            shape=tuple(meta["shape"]),
            offset=int(meta["offset"]),
        )

    def _read_artifact(self, path: Path, fingerprint: str) -> StoredFactorization:
        header = self._read_header(path)
        arrays = header["arrays"]

        def mat(prefix: str) -> sp.csr_matrix:
            n = header["n"]
            matrix = sp.csr_matrix(
                (
                    self._map_array(path, arrays[f"{prefix}_data"]),
                    self._map_array(path, arrays[f"{prefix}_indices"]),
                    self._map_array(path, arrays[f"{prefix}_indptr"]),
                ),
                shape=(n, n),
                copy=False,
            )
            matrix.has_sorted_indices = True  # sorted at publish; skip the check
            return matrix

        extras = {
            name[len("extra_"):]: self._map_array(path, meta)
            for name, meta in arrays.items()
            if name.startswith("extra_")
        }
        entry = StoredFactorization(
            mat("L"),
            mat("U"),
            self._map_array(path, arrays["perm_r"]),
            self._map_array(path, arrays["perm_c"]),
            nbytes=int(header["total_size"]),
            extras=extras,
        )
        if self.validate:
            probe_b = _probe_rhs(fingerprint, header["n"])
            probe_x = self._map_array(path, arrays["probe_x"])
            if not _probe_matches(entry.solve(probe_b), probe_x):
                raise StoreArtifactError(f"{path} failed the probe-solve validation")
        return entry

    # -- enumeration (recycled-reference warming) --------------------------------
    def list_extras(
        self, grid, omega: float, tag: str, name: str, limit: int | None = None
    ) -> list[tuple[str, np.ndarray]]:
        """Fingerprints + one extra array per artifact of an operator family.

        Newest first (publish mtime).  Used by the recycled tier to adopt
        reference permittivities published by other processes; the heavy LU
        payload is *not* read here — it memory-maps lazily when the reference
        is first solved against (via the cache fall-through).
        """
        digest = self._operator_digest(grid, omega)
        prefix = f"{_tag_safe(tag)}-{digest}-"
        candidates = []
        try:
            for path in self.directory.glob(f"{prefix}*.fact"):
                try:
                    candidates.append((path.stat().st_mtime_ns, path))
                except OSError:  # pragma: no cover - racing deletion
                    continue
        except OSError:  # pragma: no cover - directory vanished
            return []
        candidates.sort(reverse=True)
        results: list[tuple[str, np.ndarray]] = []
        for _, path in candidates:
            if limit is not None and len(results) >= limit:
                break
            fingerprint = path.name[len(prefix):-len(".fact")]
            try:
                header = self._read_header(path)
                meta = header["arrays"][f"extra_{name}"]
                results.append((fingerprint, np.array(self._map_array(path, meta))))
            except (StoreArtifactError, OSError, ValueError, KeyError, json.JSONDecodeError):
                continue
        return results

    # -- housekeeping ------------------------------------------------------------
    def _prune(self) -> None:
        """Best-effort LRU-by-mtime pruning down to the disk budget.

        Concurrent pruners racing over the same directory are expected (any
        publishing process prunes): a file that vanishes between the scan and
        its ``stat``/``unlink`` was pruned by someone else, which is success
        — the bytes are gone — never a reason to abort the rest of the pass
        or to mis-count the remaining total.
        """
        if self.budget_bytes <= 0:
            return
        try:
            paths = list(self.directory.glob("*.fact"))
        except OSError:  # pragma: no cover - directory vanished
            return
        entries = []
        for path in paths:
            try:
                info = path.stat()
            except OSError:  # vanished mid-scan: already pruned elsewhere
                continue
            entries.append((info.st_mtime_ns, info.st_size, path))
        total = sum(size for _, size, _ in entries)
        if total <= self.budget_bytes:
            return
        entries.sort()  # oldest first
        for _, size, path in entries:
            if total <= self.budget_bytes:
                break
            try:
                path.unlink()
            except FileNotFoundError:
                # A concurrent pruner beat us to it; the bytes are still
                # reclaimed, so the running total must reflect that.
                total -= size
                continue
            except OSError:  # pragma: no cover - permissions and friends
                continue
            total -= size
            with self._lock:
                self.stats.pruned += 1

    def __len__(self) -> int:
        try:
            return sum(1 for _ in self.directory.glob("*.fact"))
        except OSError:  # pragma: no cover - directory vanished
            return 0
