"""Surrogate checkpoints: persist a trained model and promote it to an engine.

This closes the generate→train→serve loop: a model trained by
:class:`repro.train.trainer.Trainer` is saved with everything needed to
*serve* it as a solver fidelity tier —

* the model-zoo name and constructor kwargs (so the architecture can be
  rebuilt without pickling code),
* the parameter arrays,
* the normalization statistics (the dataset ``field_scale`` the model's
  output convention depends on),
* a fingerprint of the training data (provenance: which shards/dataset the
  weights came from).

:func:`promote_to_engine` wraps the result as a
:class:`~repro.surrogate.neural_solver.NeuralEngine`, and the engine registry
accepts ``engine="neural:<checkpoint.npz>"`` anywhere an engine name is
accepted (``Simulation``, ``DatasetGenerator``, ``InverseDesignProblem``), so
a promoted surrogate is a one-line fidelity swap — including across process
boundaries, where engine *instances* cannot travel but checkpoint paths can.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.nn.module import Module
from repro.surrogate.neural_solver import NeuralEngine
from repro.train.models import make_model

__all__ = [
    "CHECKPOINT_FORMAT_VERSION",
    "CheckpointMeta",
    "dataset_fingerprint",
    "save_checkpoint",
    "load_checkpoint",
    "promote_to_engine",
]

CHECKPOINT_FORMAT_VERSION = 1

_PARAM_PREFIX = "param::"


@dataclass
class CheckpointMeta:
    """Everything besides the weights that a served surrogate depends on."""

    model_name: str
    model_kwargs: dict = field(default_factory=dict)
    field_scale: float = 1.0
    dataset_fingerprint: str = ""
    target: str = "field"
    extras: dict = field(default_factory=dict)


def dataset_fingerprint(data) -> str:
    """Content fingerprint of a training data source.

    Works on in-memory datasets and shard loaders alike — it hashes the
    *scan-level* identity (sample count, field scale, per-sample design id /
    fidelity / transmission label), which both expose without materializing
    field arrays.  Loader and merged dataset of the same generation run
    fingerprint identically.
    """
    digest = hashlib.sha1()
    digest.update(str(len(data)).encode())
    digest.update(repr(float(data.field_scale)).encode())
    design_ids = np.asarray(data.design_id_array(), dtype=np.int64)
    digest.update(design_ids.tobytes())
    digest.update("\x00".join(str(f) for f in data.fidelity_array()).encode())
    transmissions = np.ascontiguousarray(data.transmission_array(), dtype=np.float64)
    digest.update(transmissions.tobytes())
    return digest.hexdigest()


def save_checkpoint(path: str | Path, model: Module, meta: CheckpointMeta) -> Path:
    """Atomically write a self-describing surrogate checkpoint ``.npz``.

    Parameter arrays are stored losslessly under their dotted names; the
    metadata rides in an embedded JSON header (like shard artifacts), so a
    checkpoint is a single portable file.
    """
    path = Path(path)
    arrays = {
        f"{_PARAM_PREFIX}{name}": value for name, value in model.state_dict().items()
    }
    try:
        # The kwargs must rebuild the architecture on load, so they have to
        # survive JSON *exactly* — fail here, at the save site, instead of
        # stringifying silently and failing inside make_model much later.
        # (Tuples become lists; load restores them — see _restore_kwargs.)
        model_kwargs = json.loads(json.dumps(meta.model_kwargs))
    except TypeError as exc:
        raise ValueError(
            f"model_kwargs must be JSON-serializable to round-trip through a "
            f"checkpoint; got {meta.model_kwargs!r}"
        ) from exc
    header = {
        "version": CHECKPOINT_FORMAT_VERSION,
        "model_name": meta.model_name,
        "model_kwargs": model_kwargs,
        "field_scale": meta.field_scale,
        "dataset_fingerprint": meta.dataset_fingerprint,
        "target": meta.target,
        "extras": meta.extras,
    }
    try:
        # No default= fallback: anything that cannot round-trip (numpy
        # scalars in extras, Paths, ...) fails here instead of silently
        # coming back as a string.
        encoded = json.dumps(header).encode("utf-8")
    except TypeError as exc:
        raise ValueError(
            f"checkpoint metadata must be JSON-serializable; offending "
            f"extras/fields: {meta.extras!r}"
        ) from exc
    arrays["__header__"] = np.frombuffer(encoded, dtype=np.uint8)
    tmp = path.with_name(f"{path.stem}.tmp-{os.getpid()}.npz")
    np.savez_compressed(tmp, **arrays)
    os.replace(tmp, path)
    return path


def _restore_kwargs(kwargs: dict) -> dict:
    """Undo JSON's list-ification of tuple-valued kwargs (e.g. ``modes``)."""
    return {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in kwargs.items()
    }


def load_checkpoint(path: str | Path) -> tuple[Module, CheckpointMeta]:
    """Rebuild the model (in eval mode) and metadata from a checkpoint."""
    path = Path(path)
    with np.load(path, allow_pickle=False) as archive:
        if "__header__" not in archive:
            raise ValueError(f"{path} is not a surrogate checkpoint (no header)")
        header = json.loads(bytes(archive["__header__"].tobytes()).decode("utf-8"))
        if header.get("version") != CHECKPOINT_FORMAT_VERSION:
            raise ValueError(
                f"checkpoint {path} has format version {header.get('version')!r}; "
                f"expected {CHECKPOINT_FORMAT_VERSION}"
            )
        state = {
            name[len(_PARAM_PREFIX) :]: archive[name]
            for name in archive.files
            if name.startswith(_PARAM_PREFIX)
        }
    meta = CheckpointMeta(
        model_name=header["model_name"],
        model_kwargs=_restore_kwargs(dict(header.get("model_kwargs", {}))),
        field_scale=float(header.get("field_scale", 1.0)),
        dataset_fingerprint=header.get("dataset_fingerprint", ""),
        target=header.get("target", "field"),
        extras=dict(header.get("extras", {})),
    )
    model = make_model(meta.model_name, **meta.model_kwargs)
    model.load_state_dict(state)
    model.eval()
    return model, meta


def promote_to_engine(
    model: Module | str | Path, meta: CheckpointMeta | None = None
) -> NeuralEngine:
    """Promote a trained field model to a servable ``"neural"`` solver engine.

    Accepts either a checkpoint path (rebuilds model + metadata from disk) or
    a live model plus its :class:`CheckpointMeta`.  The returned engine honors
    the normalization convention (``field_scale``) the model was trained
    under and advertises ``supports_warm_start=False`` — a one-shot network
    prediction has no refinement iteration to warm-start.

    Examples
    --------
    ::

        save_checkpoint("surrogate.npz", model, CheckpointMeta(
            model_name="fno", model_kwargs=dict(width=16, modes=(6, 6), depth=3),
            field_scale=loader.field_scale,
            dataset_fingerprint=dataset_fingerprint(loader)))
        engine = promote_to_engine("surrogate.npz")        # instance ...
        sim = device.simulation(density, engine=engine)
        # ... or by name, anywhere an engine name is accepted (works across
        # worker processes, where live instances cannot travel):
        dataset = generate_dataset(..., engine="neural:surrogate.npz", workers=4)
    """
    if isinstance(model, (str, Path)):
        model, meta = load_checkpoint(model)
    if meta is None:
        raise ValueError("promoting a live model requires its CheckpointMeta")
    if meta.target != "field":
        raise ValueError(
            f"only field-prediction models can serve as solver engines; "
            f"checkpoint target is {meta.target!r}"
        )
    return NeuralEngine(model, meta.field_scale)
