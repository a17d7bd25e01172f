"""Deterministic sharding of dataset-generation runs.

A generation run (a :class:`~repro.data.generator.GeneratorConfig` plus the
designs it sampled) is split into *shards*: one fidelity level crossed with a
contiguous block of designs.  Three invariants make sharding safe to
parallelize and to resume:

* **Stable identity** — a design keeps its global ``design_id`` no matter
  which shard it lands in, and the shard layout is a pure function of the
  config (never of the worker count), so re-running with a different
  ``workers=`` produces byte-identical labels.
* **Per-shard RNG streams** — every shard carries its own seed spawned from
  ``config.seed`` via :class:`numpy.random.SeedSequence`, so any worker-side
  stochastic component draws from an independent stream instead of a shared
  cursor whose position depends on execution order.
* **Resumable artifacts** — a shard can be persisted as a self-describing
  ``.npz`` keyed by a content fingerprint (config, fidelity, engine, design
  densities); a rerun loads finished shards and only computes the missing
  ones.

Workers are plain processes: :func:`run_shard` is the picklable entry point
mapped over :class:`ShardTask` lists by
:func:`repro.utils.executor.execute_tasks`.
Each worker rebuilds its device, pre-warms the permittivity-independent
operator cache (:func:`repro.fdfd.engine.warmup_operators`) and labels its
designs through the batched engine path.
"""

from __future__ import annotations

import hashlib
import io
import json
import logging
import os
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from repro.constants import wavelength_to_omega
from repro.data.labels import RichLabels, extract_labels_batch
from repro.devices.factory import make_device
from repro.fdfd.engine import SolverEngine, split_engine_name, warmup_operators
from repro.utils import faults
from repro.utils.numerics import resample_bilinear

logger = logging.getLogger(__name__)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (generator imports us)
    from repro.data.generator import GeneratorConfig

__all__ = [
    "SHARD_FORMAT_VERSION",
    "ShardSpec",
    "ShardTask",
    "discard_stale_partials",
    "engine_for_fidelity",
    "plan_shards",
    "quarantine_artifact",
    "shard_fingerprint",
    "shard_filename",
    "run_shard",
    "save_shard",
    "load_shard",
    "try_load_shard",
]

# Version 2: labels carry ``extras["sample_weight"]`` (per-design acquisition
# weights) and the shard fingerprint covers the weight vector.  Version-1
# artifacts fail the version check: the generator regenerates them under new
# fingerprint file names, and ``ShardDataLoader`` skips the stale files left
# behind (it never deletes files it does not own).
SHARD_FORMAT_VERSION = 2


# --------------------------------------------------------------------------- #
# engine selection
# --------------------------------------------------------------------------- #
def engine_for_fidelity(
    engine: SolverEngine | str | dict | None, fidelity: str
) -> SolverEngine | str | None:
    """Resolve a generator engine setting for one fidelity level.

    ``engine`` may be a single engine (instance or registry name) applied to
    every fidelity, or a mapping ``{fidelity: engine}`` with an optional
    ``"*"`` default entry.
    """
    if engine is None or isinstance(engine, (str, SolverEngine)):
        return engine
    if isinstance(engine, dict):
        return engine.get(fidelity, engine.get("*"))
    raise TypeError(
        "engine must be a SolverEngine, a registry name, a {fidelity: engine} "
        f"mapping or None; got {type(engine)!r}"
    )


def engine_tag(engine: SolverEngine | str | None) -> str:
    """Stable string naming an engine selection (used in fingerprints/metadata).

    Names are normalized the way the engine registry normalizes them, so
    equivalent spellings ("Direct", "direct ") fingerprint — and resume —
    identically.  A ``":<spec>"`` suffix (e.g. the checkpoint path of
    ``"neural:model.npz"``) keeps its case: it usually names a file.
    """
    if engine is None:
        return "direct"
    if isinstance(engine, str):
        base, spec = split_engine_name(engine)
        return base if spec is None else f"{base}:{spec}"
    return getattr(engine, "name", type(engine).__name__)


# --------------------------------------------------------------------------- #
# shard planning
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class ShardSpec:
    """One shard of a generation run: a fidelity level x a block of designs."""

    index: int
    fidelity: str
    fidelity_index: int
    design_ids: tuple[int, ...]
    rng_seed: int


@dataclass
class ShardTask:
    """Everything a worker process needs to execute one shard."""

    spec: ShardSpec
    config: "GeneratorConfig"
    densities: list[np.ndarray]
    stages: list[str]
    reference_shape: tuple[int, int]
    fingerprint: str
    shard_path: str | None = None
    #: Per-design loss weights (acquisition scores) stamped into every label's
    #: ``extras["sample_weight"]``.  None means uniform (1.0).
    weights: list[float] | None = None
    #: Return labels in memory even when an artifact is written.  Set for
    #: in-process execution, where labels travelling "via the file" would be
    #: a pointless compress/decompress of every field array.
    return_labels: bool = False

    def rng(self) -> np.random.Generator:
        """This shard's independent random stream (for stochastic workers)."""
        return np.random.default_rng(self.spec.rng_seed)


def plan_shards(config: "GeneratorConfig", num_designs: int | None = None) -> list[ShardSpec]:
    """Deterministic shard layout for a config: fidelity-major, stable ids.

    The layout depends only on the config (fidelities, design count, shard
    size) — not on worker count — so labels, artifacts and merge order are
    reproducible across machines and parallelism levels.  Global design ids
    start at ``config.design_id_offset`` (default 0), which is how appending
    runs keep ids unique within a growing shard directory.
    """
    if num_designs is None:
        num_designs = config.num_designs
    if num_designs <= 0:
        raise ValueError(f"num_designs must be positive, got {num_designs}")
    shard_size = int(getattr(config, "shard_size", 0) or 0)
    if shard_size <= 0:
        shard_size = num_designs
    offset = int(getattr(config, "design_id_offset", 0) or 0)
    blocks = [
        tuple(range(offset + start, offset + min(start + shard_size, num_designs)))
        for start in range(0, num_designs, shard_size)
    ]
    total = len(config.fidelities) * len(blocks)
    children = np.random.SeedSequence(int(config.seed)).spawn(total)
    specs: list[ShardSpec] = []
    for fidelity_index, fidelity in enumerate(config.fidelities):
        for block in blocks:
            index = len(specs)
            specs.append(
                ShardSpec(
                    index=index,
                    fidelity=fidelity,
                    fidelity_index=fidelity_index,
                    design_ids=block,
                    rng_seed=int(children[index].generate_state(1)[0]),
                )
            )
    return specs


def shard_fingerprint(
    config: "GeneratorConfig",
    spec: ShardSpec,
    densities: list[np.ndarray],
    stages: list[str],
    weights: list[float] | None = None,
) -> str:
    """Content fingerprint of a shard: config identity + design content.

    Hashing the actual design densities (not just the sampling seed) keeps
    resume artifacts valid for externally supplied designs and stale-proof
    when the sampling strategy changes.  Per-design loss ``weights`` are part
    of the identity too — they change what training sees, so a re-weighted
    rerun must not resume from differently weighted artifacts.
    """
    payload = {
        "version": SHARD_FORMAT_VERSION,
        "device_name": config.device_name,
        "device_kwargs": config.device_kwargs or {},
        "with_gradient": bool(config.with_gradient),
        "engine": engine_tag(engine_for_fidelity(config.engine, spec.fidelity)),
        "fidelity": spec.fidelity,
        "design_ids": list(spec.design_ids),
        "stages": list(stages),
        "weights": [float(w) for w in weights]
        if weights is not None
        else [1.0] * len(densities),
    }
    # Only the sweep's set axes are stamped, so every linear single-wavelength
    # artifact keeps its fingerprint (and resumability).
    payload.update(config.sweep.stamp())
    digest = hashlib.sha1(json.dumps(payload, sort_keys=True, default=str).encode())
    for density in densities:
        density = np.ascontiguousarray(np.asarray(density, dtype=float))
        digest.update(str(density.shape).encode())
        digest.update(density.tobytes())
    return digest.hexdigest()


def shard_filename(fingerprint: str) -> str:
    """Artifact file name for a shard fingerprint."""
    return f"shard_{fingerprint[:20]}.npz"


# --------------------------------------------------------------------------- #
# worker entry point
# --------------------------------------------------------------------------- #
def run_shard(task: ShardTask):
    """Execute one shard: simulate and label its designs at its fidelity.

    Returns the artifact path (when ``task.shard_path`` is set and
    ``task.return_labels`` is not — the labels then travel via the file
    instead of the result pickle) or the in-memory ``(labels, design_ids)``
    pair.  Must stay importable at module top level so process pools can
    pickle it.
    """
    config = task.config
    spec = task.spec
    device = make_device(
        config.device_name, fidelity=spec.fidelity, **(config.device_kwargs or {})
    )
    # Broadband shards touch the operators at the extraction wavelengths
    # (residual labels), not at the specs' own.
    warm = config.sweep.wavelengths or [s.wavelength for s in device.specs]
    warmup_operators(device.grid, [wavelength_to_omega(w) for w in warm])
    engine = engine_for_fidelity(config.engine, spec.fidelity)

    labels: list[RichLabels] = []
    design_ids: list[int] = []
    weights = task.weights if task.weights is not None else [1.0] * len(task.densities)
    for design_id, density, stage, weight in zip(
        spec.design_ids, task.densities, task.stages, weights
    ):
        if device.design_shape != tuple(task.reference_shape):
            density = np.clip(
                resample_bilinear(density, device.design_shape), 0.0, 1.0
            )
        design_labels = extract_labels_batch(
            device,
            density,
            with_gradient=config.with_gradient,
            fidelity=spec.fidelity,
            stage=stage,
            engine=engine,
            sweep=config.sweep,
        )
        for label in design_labels:
            # The acquisition weight rides in the label extras, which shard
            # artifacts round-trip exactly — that is the metadata channel the
            # loader and trainer read it back from.
            label.extras["sample_weight"] = float(weight)
        labels.extend(design_labels)
        design_ids.extend([design_id] * len(design_labels))

    if task.shard_path is not None:
        save_shard(task.shard_path, labels, design_ids, fingerprint=task.fingerprint)
        faults.on_shard_saved(spec.index, task.shard_path)
        if not task.return_labels:
            return task.shard_path
    return labels, design_ids


# --------------------------------------------------------------------------- #
# shard artifacts
# --------------------------------------------------------------------------- #
def save_shard(
    path: str | Path,
    labels: list[RichLabels],
    design_ids: list[int],
    fingerprint: str = "",
) -> Path:
    """Atomically write one shard's rich labels to a self-describing ``.npz``.

    Arrays are stored losslessly; scalars ride in an embedded JSON header
    (JSON round-trips Python floats exactly), so a loaded shard is
    bit-identical to the in-memory labels.

    Member compression: the complex fields and gradients (``ez_*``,
    ``hx_*``, ``hy_*``, ``adjgrad_*``) are written ``ZIP_STORED`` — deflate
    shrinks them only to ~96% at ~16x the cost of the write — and everything
    else (densities, permittivities, sources, the header) ``ZIP_DEFLATED``
    at zlib level 1 (:data:`_DEFLATE_LEVEL`).  Against the default level 6,
    level 1 leaves each of them about twice as large (a 94² bend's 70.8 kB
    permittivity deflates to 1.4 kB, not 0.6 kB) but deflates it 3-6x
    faster: a shard of 8 such labels is written in 15 instead of 22 ms and
    grows by 0.3% (3.50 to 3.51 MB), which the stored fields dominate.
    ``np.load`` reads both kinds, and the zip CRC-32 still covers every
    member, so shards written by ``np.savez_compressed`` load unchanged.
    """
    path = Path(path)
    arrays: dict[str, np.ndarray] = {}
    records = []
    for i, lab in enumerate(labels):
        arrays[f"density_{i}"] = lab.density
        arrays[f"eps_{i}"] = lab.eps_r
        arrays[f"source_{i}"] = lab.source
        arrays[f"ez_{i}"] = lab.ez
        arrays[f"hx_{i}"] = lab.hx
        arrays[f"hy_{i}"] = lab.hy
        if lab.adjoint_gradient is not None:
            arrays[f"adjgrad_{i}"] = lab.adjoint_gradient
        records.append(
            {
                "design_id": int(design_ids[i]),
                "device_name": lab.device_name,
                "spec_index": lab.spec_index,
                "wavelength": lab.wavelength,
                "dl": lab.dl,
                "transmissions": dict(lab.transmissions),
                "s_params": {k: [v.real, v.imag] for k, v in lab.s_params.items()},
                "objective_value": lab.objective_value,
                "figure_of_merit": lab.figure_of_merit,
                "radiation": lab.radiation,
                "maxwell_residual": lab.maxwell_residual,
                "fidelity": lab.fidelity,
                "stage": lab.stage,
                "extras": dict(lab.extras),
            }
        )
    header = {
        "version": SHARD_FORMAT_VERSION,
        "fingerprint": fingerprint,
        "num_labels": len(labels),
        "records": records,
    }
    arrays["__header__"] = np.frombuffer(
        json.dumps(header).encode("utf-8"), dtype=np.uint8
    )
    # The temp name is dot-prefixed so a crash mid-write can never leave a
    # file matching the ``shard_*.npz`` glob the loader and resume scan — a
    # half-written partial must be invisible, not merely unlikely to load.
    tmp = path.with_name(f".{path.stem}.tmp-{os.getpid()}.npz")
    _write_npz(tmp, arrays)
    os.replace(tmp, path)
    return path


#: Shard members written uncompressed (see :func:`save_shard`).
_STORED_MEMBERS = ("ez_", "hx_", "hy_", "adjgrad_")

#: zlib level of the deflated members (see :func:`save_shard`).
_DEFLATE_LEVEL = 1


def _write_npz(path: Path, arrays: dict[str, np.ndarray]) -> None:
    """``np.savez_compressed`` with deflate skipped for :data:`_STORED_MEMBERS`.

    Members go through ``ZipFile.writestr``, the public call that takes a
    member's compression level (``open`` of a ``ZipInfo`` ignores the
    archive's).
    """
    with zipfile.ZipFile(path, "w", allowZip64=True) as archive:
        for name, array in arrays.items():
            buffer = io.BytesIO()
            np.lib.format.write_array(buffer, np.asanyarray(array), allow_pickle=False)
            stored = name.startswith(_STORED_MEMBERS)
            archive.writestr(
                zipfile.ZipInfo(f"{name}.npy"),
                buffer.getbuffer(),
                zipfile.ZIP_STORED if stored else zipfile.ZIP_DEFLATED,
                _DEFLATE_LEVEL,
            )


def load_shard(
    path: str | Path, expected_fingerprint: str | None = None
) -> tuple[list[RichLabels], list[int]]:
    """Load a shard artifact written by :func:`save_shard`.

    Raises ``ValueError`` when the artifact's fingerprint does not match
    ``expected_fingerprint`` (stale artifact from a different config/designs).
    """
    path = Path(path)
    with np.load(path, allow_pickle=False) as archive:
        header = json.loads(bytes(archive["__header__"].tobytes()).decode("utf-8"))
        if header.get("version") != SHARD_FORMAT_VERSION:
            raise ValueError(
                f"shard {path} has format version {header.get('version')!r}; "
                f"expected {SHARD_FORMAT_VERSION}"
            )
        if expected_fingerprint is not None and header.get("fingerprint") != expected_fingerprint:
            raise ValueError(f"shard {path} does not match the requested configuration")
        labels: list[RichLabels] = []
        design_ids: list[int] = []
        for i, record in enumerate(header["records"]):
            labels.append(
                RichLabels(
                    device_name=record["device_name"],
                    spec_index=int(record["spec_index"]),
                    wavelength=record["wavelength"],
                    dl=record["dl"],
                    density=archive[f"density_{i}"],
                    eps_r=archive[f"eps_{i}"],
                    source=archive[f"source_{i}"],
                    ez=archive[f"ez_{i}"],
                    hx=archive[f"hx_{i}"],
                    hy=archive[f"hy_{i}"],
                    transmissions=dict(record["transmissions"]),
                    s_params={
                        k: complex(re, im) for k, (re, im) in record["s_params"].items()
                    },
                    objective_value=record["objective_value"],
                    figure_of_merit=record["figure_of_merit"],
                    radiation=record["radiation"],
                    adjoint_gradient=archive[f"adjgrad_{i}"]
                    if f"adjgrad_{i}" in archive
                    else None,
                    maxwell_residual=record["maxwell_residual"],
                    fidelity=record["fidelity"],
                    stage=record["stage"],
                    extras=dict(record["extras"]),
                )
            )
            design_ids.append(int(record["design_id"]))
    return labels, design_ids


def try_load_shard(
    path: str | Path, expected_fingerprint: str | None = None
) -> tuple[list[RichLabels], list[int]] | None:
    """Load a shard artifact, or None if missing, corrupt or mismatched."""
    path = Path(path)
    if not path.is_file():
        return None
    try:
        return load_shard(path, expected_fingerprint)
    except (
        ValueError,
        KeyError,
        OSError,
        EOFError,
        zipfile.BadZipFile,  # truncated archive that kept the zip magic
        json.JSONDecodeError,
    ):
        return None


def quarantine_artifact(path: str | Path) -> Path | None:
    """Move a corrupt shard artifact out of the way (``<name>.bad``).

    A quarantined file no longer matches the ``shard_*.npz`` glob, so it can
    never poison ``resume=True`` or a :class:`ShardDataLoader` scan again —
    the shard is simply recomputed under its original name.  Returns the
    quarantine path, or None when there was nothing to move (already gone,
    e.g. a concurrent run got there first).
    """
    path = Path(path)
    target = path.with_name(path.name + ".bad")
    suffix = 0
    while target.exists():
        suffix += 1
        target = path.with_name(f"{path.name}.bad{suffix}")
    try:
        path.rename(target)
    except FileNotFoundError:
        return None
    except OSError:
        logger.warning("could not quarantine corrupt shard artifact %s", path)
        return None
    logger.warning("quarantined corrupt shard artifact %s -> %s", path.name, target.name)
    return target


def discard_stale_partials(path: str | Path) -> int:
    """Delete leftover temp files from crashed writers of this artifact.

    Matches both the current dot-prefixed temp naming and the legacy
    unprefixed one (which *did* match the loader glob — removing those is
    what makes old crashed runs safe to resume).  Returns how many files
    were removed.
    """
    path = Path(path)
    removed = 0
    for pattern in (f".{path.stem}.tmp-*.npz", f"{path.stem}.tmp-*.npz"):
        for stale in path.parent.glob(pattern):
            try:
                stale.unlink()
                removed += 1
            except OSError:  # pragma: no cover - racing cleanup
                pass
    return removed
