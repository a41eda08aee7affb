"""Seeded synthetic ranking datasets with controlled imbalance.

Positives and negatives are Gaussian clouds centered at +/-(margin/2)
along a random unit direction ``u``.  With a non-negative margin the noise
is confined to the orthogonal complement of ``u``, so ``u`` certifies
linear separability with exactly the requested margin at any noise level;
a negative margin swaps the class means by its magnitude and uses fully
isotropic noise, producing overlapping (inseparable) data.  Per-group
offsets along a second direction orthogonal to ``u`` inject the
score-shift scenario without breaking joint separability.

All randomness flows through numpy's PCG64 generator seeded from the
config, so a (config, seed) pair reproduces the dataset bit for bit, at
any BLAS thread count: each block's projection ``block @ u`` is small
enough that OpenBLAS computes it on one thread, where a whole group's
product of tens of thousands of rows is split between threads, and the
split changes rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .batch import RankingDataset


@dataclass(frozen=True)
class SynthConfig:
    """Generator knobs.

    ``positives`` and ``negatives`` are totals, split across ``groups``
    round-robin.  ``margin >= 0`` requests certified separable data;
    ``margin < 0`` requests overlap of that magnitude.  ``score_shift``
    scales the per-group feature offset (group g is shifted by
    g * score_shift along the shift direction).
    """

    dim: int = 20
    positives: int = 30
    negatives: int = 300
    groups: int = 1
    margin: float = 0.1
    noise_sigma: float = 1.0
    seed: int = 0
    score_shift: float = 0.0

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be at least 1")
        if self.positives < 0 or self.negatives < 0:
            raise ValueError("sample counts must be non-negative")
        if self.groups < 1:
            raise ValueError("groups must be at least 1")
        for name in ("margin", "noise_sigma", "score_shift"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")


# Entries per step of the in-place projection, centring and shift, at most,
# so that OpenBLAS projects each block on one thread (OpenBLAS 0.3.31 on
# x86-64 split a matrix-vector product between threads past about 65,000
# entries).  The rows, a power of two, at least 4, keep the bits of the
# whole product, whose kernel takes 4 rows at a time.
_BLOCK = 1 << 15


def _split_counts(total: int, groups: int) -> list[int]:
    base, extra = divmod(total, groups)
    return [base + (1 if g < extra else 0) for g in range(groups)]


def generate(cfg: SynthConfig) -> RankingDataset:
    """Draw a dataset; deterministic for a fixed config, and empty with no samples.

    When ``margin >= 0`` the returned dataset carries the certifying unit
    vector as ``separator`` (and the margin), verified by scoring before
    returning; a gap that rounding leaves below the margin (a large
    ``score_shift``) raises ``ValueError``.
    """
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(cfg.seed)))
    u = rng.standard_normal(cfg.dim)
    u /= np.linalg.norm(u) if np.linalg.norm(u) > 0 else 1.0

    # Shift direction orthogonal to the separator; degenerates to zero in
    # one dimension, where no orthogonal direction exists.
    v = rng.standard_normal(cfg.dim)
    v -= (v @ u) * u
    vnorm = np.linalg.norm(v)
    v = v / vnorm if vnorm > 1e-12 else np.zeros(cfg.dim)

    pos_counts = _split_counts(cfg.positives, cfg.groups)
    neg_counts = _split_counts(cfg.negatives, cfg.groups)

    separable = cfg.margin >= 0
    n = cfg.positives + cfg.negatives
    features = np.empty((n, cfg.dim))
    label_arr = np.zeros(n, dtype=np.int64)
    gid_arr = np.empty(n, dtype=np.int64)
    # The row patterns u and (margin/2) u, repeated over one block's rows
    # (the largest group's, if smaller, and at least one, with no samples),
    # so that every block update below runs over one contiguous run of the
    # flattened rows.
    rows = min(
        1 << max(2, (_BLOCK // cfg.dim).bit_length() - 1), max(pos_counts[0] + neg_counts[0], 1)
    )
    u_rows, half_rows = np.tile(u, rows), np.tile((cfg.margin / 2.0) * u, rows)
    proj = np.empty(rows * cfg.dim)
    start = 0
    for g in range(cfg.groups):
        n_pos, stop = pos_counts[g], start + pos_counts[g] + neg_counts[g]
        group = features[start:stop]
        rng.standard_normal(out=group)
        group *= cfg.noise_sigma
        # A few rows at a time, in cache, with no (n_g, dim) temporary.
        shift_rows = np.tile((cfg.score_shift * g) * v, rows)
        flat = group.reshape(-1)
        for r0 in range(0, stop - start, rows):
            block = flat[r0 * cfg.dim : (r0 + rows) * cfg.dim]
            m = block.shape[0]
            if separable:
                np.multiply(np.repeat(group[r0 : r0 + rows] @ u, cfg.dim), u_rows[:m], out=proj[:m])
                block -= proj[:m]
            # The negatives' x - (margin/2) u_d is x + (-margin/2) u_d exactly.
            k = min(max(n_pos - r0, 0) * cfg.dim, m)
            block[:k] += half_rows[:k]
            block[k:] -= half_rows[k:m]
            block += shift_rows[:m]
        label_arr[start : start + n_pos] = 1
        gid_arr[start:stop] = g
        start = stop

    data = RankingDataset(
        features,
        label_arr,
        gid_arr,
        margin=cfg.margin if separable else None,
        separator=u if separable else None,
    )
    if separable and cfg.positives > 0 and cfg.negatives > 0:
        scores = features @ u
        gap = scores[label_arr == 1].min() - scores[label_arr == 0].max()
        if gap < cfg.margin - 1e-9:
            raise ValueError(
                f"separability certificate failed: gap {gap} < margin {cfg.margin}"
            )
    return data
