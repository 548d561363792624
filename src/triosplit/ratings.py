"""Ratings-file ingestion: parsing, ID remapping, train/test splitting.

Input lines follow the UserID::MovieID::Rating::Timestamp convention.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .linalg import ObservationSet

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class RatingsDataset:
    """Parsed ratings with IDs remapped to dense matrix indices."""

    user_index: np.ndarray
    item_index: np.ndarray
    ratings: np.ndarray
    timestamps: np.ndarray
    n_users: int
    n_items: int
    duplicates: int


def load_ratings(path):
    """Parse a ratings file into a RatingsDataset.

    IDs are remapped to contiguous indices by sorted original ID. Repeated
    (user, item) pairs keep the last occurrence; the overwrite count is
    logged and reported on the dataset. Malformed lines and ratings outside
    [1, 5] fail with the offending line number.
    """
    users, items, ratings, stamps = [], [], [], []
    lo, hi = 1.0, 5.0
    with open(path) as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split("::")
            if len(parts) != 4:
                raise ValueError(f"{path}:{lineno}: expected 4 '::'-separated fields, got {len(parts)}")
            try:
                u = int(parts[0])
                i = int(parts[1])
                r = float(parts[2])
                t = int(parts[3])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: unparsable record {line!r}") from exc
            if not lo <= r <= hi:
                raise ValueError(f"{path}:{lineno}: rating {r} outside [{lo}, {hi}]")
            users.append(u)
            items.append(i)
            ratings.append(r)
            stamps.append(t)
    if not users:
        raise ValueError(f"{path}: no ratings found")

    user_ids = np.unique(users)
    item_ids = np.unique(items)
    umap = {u: k for k, u in enumerate(user_ids)}
    imap = {i: k for k, i in enumerate(item_ids)}

    latest = {}
    duplicates = 0
    for u, i, r, t in zip(users, items, ratings, stamps):
        key = (umap[u], imap[i])
        if key in latest:
            duplicates += 1
        latest[key] = (r, t)
    if duplicates:
        log.warning("%s: %d duplicate (user, item) pairs; kept last occurrence", path, duplicates)

    keys = sorted(latest)
    uidx = np.array([k[0] for k in keys], dtype=np.intp)
    iidx = np.array([k[1] for k in keys], dtype=np.intp)
    vals = np.array([latest[k][0] for k in keys])
    times = np.array([latest[k][1] for k in keys], dtype=np.int64)
    return RatingsDataset(uidx, iidx, vals, times, len(user_ids), len(item_ids), duplicates)


def split_observations(dataset, split_seed, test_fraction):
    """Disjoint (train, test) observation sets covering every rating once."""
    if not 0.0 <= test_fraction < 1.0:
        raise ValueError("test_fraction must lie in [0, 1)")
    count = len(dataset.ratings)
    n_test = int(round(count * test_fraction))
    if count - n_test < 1:
        raise ValueError("split leaves no training entries")
    perm = np.random.default_rng(split_seed).permutation(count)
    test_idx = np.sort(perm[:n_test])
    train_idx = np.sort(perm[n_test:])
    shape = (dataset.n_users, dataset.n_items)

    def subset(idx):
        return ObservationSet(dataset.user_index[idx], dataset.item_index[idx],
                              dataset.ratings[idx], shape)

    return subset(train_idx), subset(test_idx)


def ingest_ratings(path, split_seed=0, test_fraction=0.2):
    """Parse a ratings file and split it into (train, test) observation sets."""
    dataset = load_ratings(path)
    return split_observations(dataset, split_seed, test_fraction)
