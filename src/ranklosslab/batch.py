"""Data model for ranking samples: scored mini-batches and feature datasets.

A batch carries one scalar score, one ternary label, and one group id per
sample; a dataset carries a feature row in place of the score.  Labels
are 1 (positive), 0 (negative), or -1 (ignored: the sample is excluded
from every loss and gradient).  Group ids tag which image or sub-batch a
sample came from so that batches can be aggregated without losing that
structure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np


def _whole(name: str, values) -> np.ndarray:
    """``values`` as int64, refusing any that are not whole numbers, which
    a cast would truncate."""
    values = np.asarray(values)
    if values.dtype.kind not in "biu":
        values = np.asarray(values, dtype=np.float64)
        whole = (np.trunc(values) == values) & (np.abs(values) < 2.0**63)
        if not whole.all():
            bad = np.unique(values[~whole]).tolist()
            raise ValueError(f"{name} must be whole numbers, found {bad}")
    return np.asarray(values, dtype=np.int64)


def _validated(name: str, values, ndim: int, labels, group_ids):
    """Checked float64 ``values`` (one leading row per sample), int64
    labels and int64 group ids (zeros when None)."""
    values = np.asarray(values, dtype=np.float64)
    labels = _whole("labels", labels)
    if values.ndim != ndim or labels.ndim != 1:
        raise ValueError(f"{name} must be {ndim}-dimensional and labels one-dimensional")
    if values.shape[0] != labels.shape[0]:
        raise ValueError(
            f"length mismatch: {values.shape[0]} {name} vs {labels.shape[0]} labels"
        )
    if not np.isfinite(values).all():
        raise ValueError(f"{name} must be finite")
    valid = (labels >= -1) & (labels <= 1)
    if not valid.all():
        bad = np.unique(labels[~valid])
        raise ValueError(f"labels must be in {{-1, 0, 1}}, found {bad.tolist()}")
    if group_ids is None:
        group_ids = np.zeros(labels.shape[0], dtype=np.int64)
    else:
        group_ids = _whole("group_ids", group_ids)
        if group_ids.shape != labels.shape:
            raise ValueError("group_ids must match labels in length")
    return values, labels, group_ids


@dataclass(frozen=True)
class SampleBatch:
    """Scores, ternary labels, and group ids for one mini-batch."""

    scores: np.ndarray
    labels: np.ndarray
    group_ids: np.ndarray | None = None

    def __post_init__(self):
        scores, labels, group_ids = _validated(
            "scores", self.scores, 1, self.labels, self.group_ids
        )
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "group_ids", group_ids)

    @property
    def n(self) -> int:
        return int(self.scores.shape[0])

    def subset(self, index: np.ndarray) -> "SampleBatch":
        return SampleBatch(self.scores[index], self.labels[index], self.group_ids[index])


@dataclass(frozen=True)
class RankingDataset:
    """Feature rows plus ternary labels and group ids.

    ``margin`` and ``separator`` are optional certificates from the
    synthetic generator: under the separator every positive outscores
    every negative by at least the margin.
    """

    features: np.ndarray
    labels: np.ndarray
    group_ids: np.ndarray | None = None
    margin: float | None = None
    separator: np.ndarray | None = None

    def __post_init__(self):
        features, labels, group_ids = _validated(
            "features", self.features, 2, self.labels, self.group_ids
        )
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "group_ids", group_ids)

    @property
    def n(self) -> int:
        return int(self.labels.shape[0])

    @property
    def dim(self) -> int:
        return int(self.features.shape[1])

    def groups(self) -> list[int]:
        return np.unique(self.group_ids).tolist()

    def group_rows(self, gid: int) -> np.ndarray:
        return np.flatnonzero(self.group_ids == gid)

    def subset(self, index: np.ndarray) -> "RankingDataset":
        return RankingDataset(
            self.features[index],
            self.labels[index],
            self.group_ids[index],
            margin=self.margin,
            separator=self.separator,
        )


def partition(batch: SampleBatch | RankingDataset) -> tuple[np.ndarray, np.ndarray]:
    """Split a batch or dataset into (positive, negative) sample index arrays.

    Samples labeled -1 land in neither set.  Both arrays are sorted and
    may be empty.
    """
    return (
        np.flatnonzero(batch.labels == 1),
        np.flatnonzero(batch.labels == 0),
    )


def aggregate_batches(batches: Sequence[SampleBatch] | Iterable[SampleBatch]) -> SampleBatch:
    """Concatenate per-image batches into one jointly-ranked batch.

    Scores from all inputs are pooled so a single ranking spans every
    group; this is what defuses the score-shift failure mode of ranking
    each image on its own scale.  Group ids of later batches are offset so
    distinct inputs never collide (a run of single-group inputs comes out
    tagged 0, 1, 2, ...).
    """
    batches = list(batches)
    if not batches:
        return SampleBatch(np.empty(0), np.empty(0, dtype=np.int64))
    scores = np.concatenate([b.scores for b in batches])
    labels = np.concatenate([b.labels for b in batches])
    gids = []
    offset = 0
    for b in batches:
        if b.n == 0:
            continue
        shifted = b.group_ids - b.group_ids.min() + offset
        gids.append(shifted)
        offset = int(shifted.max()) + 1
    group_ids = np.concatenate(gids) if gids else np.empty(0, dtype=np.int64)
    return SampleBatch(scores, labels, group_ids)
