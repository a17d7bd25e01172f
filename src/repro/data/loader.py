"""Streaming training data from shard artifacts.

:class:`ShardDataLoader` turns the resumable ``.npz`` shard artifacts written
by the sharded dataset generator (:mod:`repro.data.shards`) into a training
data source without ever materializing the merged dataset: shards are loaded
lazily, synchronously, through one :class:`repro.utils.cache.BoundedCache` of
``cache_shards`` decoded shards, so at most ``cache_shards`` shards are ever
resident — peak memory is O(shard), not O(dataset).  Two contracts make the
loader a drop-in for the in-memory :class:`~repro.data.dataset.PhotonicDataset`
inside the trainer:

* **Bit-identical samples** — shard artifacts round-trip losslessly and the
  loader applies the exact :meth:`PhotonicDataset.from_labels` transforms
  (same ``field_scale``, computed with the same median over the same values),
  so every ``(inputs, target)`` pair equals the merged dataset's byte for
  byte.
* **Bit-identical iteration** — :meth:`batches` consumes the random stream
  exactly like ``PhotonicDataset.batches`` (one shuffle of an N-index array
  per epoch), so a trainer driven by the loader produces the same loss curves
  as one driven by the merged dataset for the same seed.

Shards are ordered the way :func:`repro.data.shards.plan_shards` merges them
(fidelity-major, ascending design blocks), reconstructed from the artifact
content: pass ``fidelities=`` in the generation config's order (the default
sorts fidelity names, which matches configs like ``("high", "low")`` only by
accident — always pass the config order when bit-identity to a merged dataset
matters).

The loader also supports *growing* shard directories
(:meth:`ShardDataLoader.refresh`): active-learning appends fold in without
touching existing samples, and per-sample acquisition weights travel from the
shard metadata to the trainer (:meth:`ShardDataLoader.sample_weight_array`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.data.dataset import PhotonicDataset, Sample, split_shape_runs
from repro.data.shards import SHARD_FORMAT_VERSION, load_shard
from repro.utils.cache import BoundedCache
from repro.utils.rng import get_rng

__all__ = ["LoaderStats", "ShardDataLoader"]


@dataclass
class LoaderStats:
    """What a :class:`ShardDataLoader` actually did, for tests and tuning.

    ``max_resident`` is the largest number of decoded shard payloads held in
    the cache at any time.  It never exceeds ``cache_shards``, however many
    shards one batch touches — O(shard) in the dataset size, never
    O(dataset); asserted in tests with a shard count far above the cache
    size.
    """

    shard_loads: int = 0
    cache_hits: int = 0
    max_resident: int = 0


@dataclass(frozen=True)
class _SampleRef:
    """Index entry locating one sample inside the shard set."""

    shard: int
    local: int
    fidelity: str
    design_id: int
    shape: tuple[int, int]
    transmission: float
    weight: float


def _shard_plan_key(header: dict, name: str, rank: dict) -> tuple:
    """Sort key reconstructing the generator's merge order from shard content.

    Fidelity-major (by the loader's fidelity order), then ascending design
    blocks, file name as the tiebreaker.  Shared by construction and
    :meth:`ShardDataLoader.refresh` so appended shards are ordered among
    themselves exactly the way a fresh loader would order them.
    """
    records = header["records"]
    return (
        min(rank[r["fidelity"]] for r in records),
        min(int(r["design_id"]) for r in records),
        name,
    )


def _scan_current_shards(paths: list[Path]) -> tuple[list[Path], list[tuple], list[Path]]:
    """Scan artifacts, keeping only current-format ones.

    Older-format artifacts legitimately linger in resumed directories: the
    generator rejects them (version check), rewrites the shard under a *new*
    fingerprint file name and never deletes files it did not write — so a
    pre-upgrade ``shard_dir`` holds both generations side by side.  Indexing
    the stale files alongside their rewritten versions would trip the
    mixed-run check; skipping them here is what makes the "regenerate and
    keep going" upgrade path work.  Returns ``(kept paths, their scans,
    ignored paths)``.
    """
    kept: list[Path] = []
    scans: list[tuple] = []
    ignored: list[Path] = []
    for path in paths:
        scan = _scan_shard(path)
        if scan[0].get("version") == SHARD_FORMAT_VERSION:
            kept.append(path)
            scans.append(scan)
        else:
            ignored.append(path)
    return kept, scans, ignored


def _scan_shard(path: Path) -> tuple[dict, list[float], list[tuple[int, int]]]:
    """One bounded-memory pass over a shard: header + per-label field stats.

    Returns the parsed JSON header, the per-label ``std(|ez|)`` values that
    feed the dataset-wide ``field_scale`` median, and the per-label grid
    shapes.  Only one shard's arrays are decoded at a time.
    """
    with np.load(path, allow_pickle=False) as archive:
        header = json.loads(bytes(archive["__header__"].tobytes()).decode("utf-8"))
        stats: list[float] = []
        shapes: list[tuple[int, int]] = []
        for i in range(len(header.get("records", []))):
            ez = archive[f"ez_{i}"]
            stats.append(float(np.std(np.abs(ez))))
            shapes.append(tuple(ez.shape))
    return header, stats, shapes


class ShardDataLoader:
    """Iterate shard artifacts lazily with bounded memory.

    Parameters
    ----------
    shard_paths:
        The shard ``.npz`` files of one generation run (see
        :meth:`from_directory` for the glob-a-directory constructor).
    fidelities:
        Fidelity names in the generation config's order; defines the
        fidelity-major sample order.  Defaults to the sorted distinct names
        found in the shards.
    field_scale:
        Global field scale applied to the targets.  Computed exactly like
        :meth:`PhotonicDataset.from_labels` (median of per-label
        ``std(|ez|)`` over *all* shards) when omitted.
    cache_shards:
        Decoded shards kept in the LRU cache (the memory bound; at least 1).

    Examples
    --------
    Stream a generation run into training, then keep growing it::

        loader = ShardDataLoader.from_directory("shards", fidelities=("low", "high"))
        train, test = loader.split(train_fraction=0.8, rng=0)
        Trainer(model, data=train, test_set=test, epochs=30).train()

        # ... an active-learning round appends new shard artifacts ...
        loader.refresh()          # picks them up; existing samples untouched

    Per-sample metadata from the scan pass (no shard loads):
    :meth:`fidelity_array`, :meth:`design_id_array`,
    :meth:`transmission_array`, :meth:`sample_weight_array`.
    """

    def __init__(
        self,
        shard_paths,
        fidelities: tuple[str, ...] | list[str] | None = None,
        field_scale: float | None = None,
        cache_shards: int = 2,
    ):
        candidates = [Path(p) for p in shard_paths]
        if not candidates:
            raise ValueError("no shard paths given")
        if cache_shards < 1:
            raise ValueError(f"cache_shards must be at least 1, got {cache_shards}")
        self.cache_shards = int(cache_shards)
        self.stats = LoaderStats()
        self._cache = BoundedCache(self.cache_shards)

        # Scan pass: headers + field statistics, one shard resident at a time.
        # Stale older-format artifacts are skipped (see _scan_current_shards).
        paths, scans, ignored = _scan_current_shards(candidates)
        self._ignored_paths = set(ignored)
        if not paths:
            raise ValueError(
                f"none of the {len(candidates)} shard artifacts use the "
                f"current format version {SHARD_FORMAT_VERSION}; regenerate "
                "the dataset into this directory (stale older-format files "
                "are ignored, not loaded)"
            )
        seen = {record["fidelity"] for header, _, _ in scans for record in header["records"]}
        if fidelities is None:
            fidelities = tuple(sorted(seen))
        else:
            fidelities = tuple(fidelities)
            unknown = seen - set(fidelities)
            if unknown:
                raise ValueError(
                    f"shards contain fidelities {sorted(unknown)} missing from the "
                    f"requested order {list(fidelities)}"
                )
        rank = {name: position for position, name in enumerate(fidelities)}
        self.fidelities = fidelities

        order = sorted(
            range(len(paths)),
            key=lambda i: _shard_plan_key(scans[i][0], paths[i].name, rank),
        )
        self._paths = [paths[i] for i in order]

        if field_scale is None:
            stats = [value for i in order for value in scans[i][1]]
            field_scale = float(np.median(stats) or 1.0) if stats else 1.0
        self.field_scale = float(field_scale)

        self._refs: list[_SampleRef] = []
        self._design_owner: dict[tuple[str, int], int] = {}
        self._is_view = False
        for shard, scan_index in enumerate(order):
            header, _, shapes = scans[scan_index]
            self._index_shard(shard, header, shapes)
        self.metadata: dict = {
            "num_shards": len(self._paths),
            "fidelities": list(fidelities),
        }

    def _index_shard(self, shard: int, header: dict, shapes) -> None:
        """Append one scanned shard's samples to the index.

        Rejects a ``(fidelity, design_id)`` pair already owned by another
        shard: one generation run puts all samples of a (fidelity, design) in
        exactly one shard, so the same pair appearing in two files means the
        directory mixes shards of different runs (e.g. a reused shard_dir
        after a config change) — training on that interleaved mix would be
        silent corruption.  Appending runs (active learning) stay legal
        because they shift ``design_id_offset`` so their ids never collide.
        """
        for local, record in enumerate(header["records"]):
            fidelity = record["fidelity"]
            design_id = int(record["design_id"])
            owner = self._design_owner.setdefault((fidelity, design_id), shard)
            if owner != shard:
                raise ValueError(
                    f"shards {self._paths[owner].name} and "
                    f"{self._paths[shard].name} both contain design "
                    f"{design_id} at fidelity {fidelity!r}; the directory "
                    "mixes artifacts of different generation runs — use a "
                    "clean shard_dir per config (or delete stale shards)"
                )
            self._refs.append(
                _SampleRef(
                    shard=shard,
                    local=local,
                    fidelity=fidelity,
                    design_id=design_id,
                    shape=shapes[local],
                    transmission=float(sum(record["transmissions"].values())),
                    weight=float(record.get("extras", {}).get("sample_weight", 1.0)),
                )
            )

    @classmethod
    def from_directory(
        cls, shard_dir: str | Path, fidelities=None, **kwargs
    ) -> "ShardDataLoader":
        """Loader over every ``shard_*.npz`` artifact in a directory.

        The directory must hold the artifacts of a single generation run
        (one config); mixing runs silently interleaves their samples.
        """
        shard_dir = Path(shard_dir)
        paths = sorted(shard_dir.glob("shard_*.npz"))
        if not paths:
            raise FileNotFoundError(f"no shard artifacts (shard_*.npz) in {shard_dir}")
        loader = cls(paths, fidelities=fidelities, **kwargs)
        loader.metadata["shard_dir"] = str(shard_dir)
        return loader

    # -- container protocol --------------------------------------------------------
    def __len__(self) -> int:
        return len(self._refs)

    def __getitem__(self, index: int) -> Sample:
        ref = self._refs[index]
        return self._shard_dataset(ref.shard)[ref.local]

    # -- index arrays (scan-pass metadata, no shard loads) -------------------------
    def fidelity_array(self) -> np.ndarray:
        """Per-sample fidelity tags, ``(N,)``."""
        return np.array([ref.fidelity for ref in self._refs])

    def design_id_array(self) -> np.ndarray:
        """Per-sample design ids, ``(N,)``."""
        return np.array([ref.design_id for ref in self._refs], dtype=int)

    def transmission_array(self) -> np.ndarray:
        """Scalar transmission labels, ``(N,)`` (from the scan pass)."""
        return np.array([ref.transmission for ref in self._refs])

    def sample_weight_array(self) -> np.ndarray:
        """Per-sample loss weights, ``(N,)`` (from shard ``extras`` metadata).

        1.0 everywhere for plain generation runs; active-learning appends
        carry their acquisition weight here, and the trainer picks the array
        up automatically for per-sample loss weighting.
        """
        return np.array([ref.weight for ref in self._refs])

    def sample_shapes(self) -> list[tuple[int, int]]:
        """Per-sample grid shapes."""
        return [ref.shape for ref in self._refs]

    # -- views ---------------------------------------------------------------------
    def restrict(self, fidelities=None, design_ids=None) -> "ShardDataLoader":
        """A filtered view (by fidelity and/or design id) sharing the cache.

        Mirrors ``PhotonicDataset.filter``: the sample order and the
        ``field_scale`` of the full run are preserved, only the index is
        narrowed — so a restricted loader matches the correspondingly
        filtered merged dataset bit for bit.
        """
        keep_fidelity = None if fidelities is None else set(fidelities)
        keep_design = None if design_ids is None else {int(d) for d in design_ids}
        view = object.__new__(ShardDataLoader)
        view.__dict__.update(self.__dict__)
        view.metadata = dict(self.metadata)
        view._is_view = True
        view._refs = [
            ref
            for ref in self._refs
            if (keep_fidelity is None or ref.fidelity in keep_fidelity)
            and (keep_design is None or ref.design_id in keep_design)
        ]
        return view

    def split(self, train_fraction: float = 0.7, rng=None) -> tuple["ShardDataLoader", "ShardDataLoader"]:
        """Design-level train/test split (the hierarchical MAPS-Train split).

        Consumes the random stream exactly like
        :func:`repro.data.dataset.split_dataset`, so the same seed produces
        the same design partition as splitting the merged dataset.
        """
        if not 0.0 < train_fraction <= 1.0:
            raise ValueError(f"train fraction must be in (0, 1], got {train_fraction}")
        design_ids = sorted({ref.design_id for ref in self._refs})
        order = np.array(design_ids)
        get_rng(rng).shuffle(order)
        n_train = int(round(train_fraction * len(order)))
        train_ids = set(order[:n_train].tolist())
        test_ids = set(order[n_train:].tolist())
        return self.restrict(design_ids=train_ids), self.restrict(design_ids=test_ids)

    # -- growth --------------------------------------------------------------------
    def refresh(self, shard_paths=None) -> int:
        """Pick up shard artifacts that appeared since the loader was built.

        The active-learning append path: a generation run wrote new shards
        into the directory (with a ``design_id_offset`` past the existing
        ids), and ``refresh()`` folds them into the index *without touching
        anything already there* —

        * pre-existing samples keep their indices and stay byte-identical
          (the ``field_scale`` is frozen at construction; recomputing the
          median over the grown set would silently rescale every old target
          and invalidate the model trained on them),
        * new samples are appended after the existing ones, ordered among
          themselves the way a fresh loader would order them,
        * the stale-mix check keeps protecting the growing directory: a new
          shard that re-labels an existing ``(fidelity, design_id)`` pair is
          rejected as a mixed-run artifact, exactly like at construction.

        Parameters
        ----------
        shard_paths:
            Explicit paths to consider.  Defaults to re-globbing the
            directory the loader was built from (:meth:`from_directory`);
            loaders built from an explicit path list must pass this.

        Returns
        -------
        int
            Number of samples appended (0 when nothing new showed up).

        Examples
        --------
        >>> loader = ShardDataLoader.from_directory("shards")   # doctest: +SKIP
        >>> DatasetGenerator(replace(config, design_id_offset=len(ids),
        ...                          shard_dir="shards")).generate()  # doctest: +SKIP
        >>> loader.refresh()                                    # doctest: +SKIP
        8
        """
        if self._is_view:
            raise ValueError(
                "refresh() must be called on the root loader, not a "
                "restrict()/split() view — refresh the root and re-derive "
                "the views"
            )
        if shard_paths is None:
            shard_dir = self.metadata.get("shard_dir")
            if shard_dir is None:
                raise ValueError(
                    "this loader was built from an explicit path list; pass "
                    "shard_paths= to refresh it"
                )
            shard_paths = sorted(Path(shard_dir).glob("shard_*.npz"))
        known = set(self._paths) | self._ignored_paths
        candidates = [p for p in (Path(p) for p in shard_paths) if p not in known]
        if not candidates:
            return 0

        new_paths, scans, ignored = _scan_current_shards(candidates)
        self._ignored_paths.update(ignored)
        if not new_paths:
            return 0
        seen = {
            record["fidelity"] for header, _, _ in scans for record in header["records"]
        }
        unknown = seen - set(self.fidelities)
        if unknown:
            raise ValueError(
                f"new shards contain fidelities {sorted(unknown)} missing from "
                f"the loader's order {list(self.fidelities)}; build a fresh "
                "loader to change the fidelity set"
            )
        rank = {name: position for position, name in enumerate(self.fidelities)}

        # Validate before mutating anything, so a stale-mix rejection leaves
        # the loader exactly as it was.
        incoming: dict[tuple[str, int], Path] = {}
        for scan_index, (header, _, _) in enumerate(scans):
            for record in header["records"]:
                pair = (record["fidelity"], int(record["design_id"]))
                # Repeats inside one shard are normal (one label per spec);
                # only a pair owned by a *different* file is a mixed run.
                conflict = None
                if pair in self._design_owner:
                    conflict = self._paths[self._design_owner[pair]].name
                elif incoming.get(pair, new_paths[scan_index]) != new_paths[scan_index]:
                    conflict = incoming[pair].name
                if conflict is not None:
                    raise ValueError(
                        f"shards {conflict} and {new_paths[scan_index].name} "
                        f"both contain design {pair[1]} at fidelity "
                        f"{pair[0]!r}; the directory mixes artifacts of "
                        "different generation runs — use a clean shard_dir "
                        "per config (or delete stale shards)"
                    )
                incoming.setdefault(pair, new_paths[scan_index])

        appended = 0
        for scan_index in sorted(
            range(len(new_paths)),
            key=lambda i: _shard_plan_key(scans[i][0], new_paths[i].name, rank),
        ):
            header, _, shapes = scans[scan_index]
            shard = len(self._paths)
            self._paths.append(new_paths[scan_index])
            self._index_shard(shard, header, shapes)
            appended += len(header["records"])
        self.metadata["num_shards"] = len(self._paths)
        return appended

    # -- shard cache -----------------------------------------------------------------
    def _shard_dataset(self, shard: int) -> PhotonicDataset:
        """The decoded shard, via the LRU cache (loads synchronously on miss)."""
        dataset = self._cache.get(shard)
        if dataset is not None:
            self.stats.cache_hits += 1
            return dataset
        labels, design_ids = load_shard(self._paths[shard])
        dataset = PhotonicDataset.from_labels(
            labels, design_ids, field_scale=self.field_scale
        )
        self._cache.put(shard, dataset)
        self.stats.shard_loads += 1
        self.stats.max_resident = max(self.stats.max_resident, len(self._cache))
        return dataset

    def cache_clear(self) -> None:
        """Drop every decoded shard (keeps the index and statistics)."""
        self._cache.clear()

    # -- batched access ----------------------------------------------------------------
    def gather(self, indices) -> tuple[np.ndarray, np.ndarray]:
        """``(inputs, targets)`` stacks for an index selection, in order.

        Samples are fetched shard by shard (each shard decoded once per call)
        but placed at their original positions, so the stacks equal the
        merged dataset's ``gather`` exactly.
        """
        indices = np.asarray(indices, dtype=int)
        inputs: list = [None] * len(indices)
        targets: list = [None] * len(indices)
        by_shard: dict[int, list[int]] = {}
        for position, index in enumerate(indices):
            by_shard.setdefault(self._refs[index].shard, []).append(position)
        for shard, positions in by_shard.items():
            dataset = self._shard_dataset(shard)
            for position in positions:
                sample = dataset[self._refs[indices[position]].local]
                inputs[position] = sample.inputs
                targets[position] = sample.target
        return np.stack(inputs, axis=0), np.stack(targets, axis=0)

    def stream(self, chunks):
        """Yield ``(inputs, targets)`` stacks for an explicit chunk sequence.

        One :meth:`gather` per chunk, in order: the loop behind
        :meth:`batches`, exposed for callers that plan their own chunks.
        """
        for chunk in chunks:
            yield self.gather(chunk)

    def batches(self, batch_size: int, shuffle: bool = True, rng=None):
        """Yield ``(inputs, targets, indices)`` mini-batches, streaming shards.

        Consumes the random stream exactly like
        ``PhotonicDataset.batches`` — one shuffle of an ``arange(N)`` per
        call — and applies the same shape-boundary chunk splitting, so the
        loader path is bit-identical to the in-memory path for the same seed.
        """
        if batch_size <= 0:
            raise ValueError(f"batch size must be positive, got {batch_size}")
        order = np.arange(len(self._refs))
        if shuffle:
            get_rng(rng).shuffle(order)
        shapes = self.sample_shapes()
        chunks = [
            sub
            for start in range(0, len(order), batch_size)
            for sub in split_shape_runs(order[start : start + batch_size], shapes)
        ]
        for chunk, (inputs, targets) in zip(chunks, self.stream(chunks)):
            yield inputs, targets, chunk

    # -- materialization (tests / small datasets) ----------------------------------
    def materialize(self) -> PhotonicDataset:
        """Load *everything* into one in-memory dataset (O(dataset) memory).

        For tests and small runs; the result is bit-identical to the merged
        dataset the generator would have returned for the same shards.
        """
        samples = [self[i] for i in range(len(self))]
        return PhotonicDataset(
            samples, field_scale=self.field_scale, metadata=dict(self.metadata)
        )
