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


_EXACT = 2.0 ** 53     # every integer below this is exact in float64
_INT64 = 2 ** 63
_COLON_TO_SPACE = bytes.maketrans(b":", b" ")


def _parse_canonical(data, lo, hi):
    """Columns (users, items, ratings, stamps) of a canonical file, in array
    passes, or None for any other file.

    A canonical file holds only ASCII digits, '::' and '.', one record per
    '\\n'-terminated line, with no field empty and at most one '.', in the
    rating. numpy parses such a file in one call. A file whose IDs or
    timestamps float64 cannot hold exactly, or with a rating outside
    [lo, hi], is left to the line scan too.
    """
    if not data.endswith(b"\n"):
        return None
    lines = data.count(b"\n")
    skeleton = data.translate(None, b"0123456789")
    # Deleting the digits must leave six ':' a line, and '.' only after the
    # fourth, in the rating. Six ':' that count as three '::' are three
    # separators, or runs of four or six that leave a field empty, which the
    # field count below catches. "::.::" is a rating that is a lone '.'.
    if (skeleton.replace(b".", b"") != b"::::::\n" * lines
            or data.count(b"::") != 3 * lines
            or skeleton.count(b"::::.::\n") != skeleton.count(b".")
            or b"::.::" in data):
        return None
    fields = np.fromstring(data.translate(_COLON_TO_SPACE), sep=" ")
    if fields.size != 4 * lines:  # a field was empty
        return None
    fields = fields.reshape(lines, 4)
    ints, ratings = fields[:, [0, 1, 3]], fields[:, 2]
    if ints.max() >= _EXACT or ratings.min() < lo or ratings.max() > hi:
        return None
    users, items, stamps = ints.astype(np.int64).T
    return users, items, ratings, stamps


def _scan_lines(path, lo, hi):
    """Parse line by line, as int() and float() read each field: the path for
    every file that is not canonical, and the only one that reports errors."""
    users, items, ratings, stamps = [], [], [], []
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
            if not -_INT64 <= t < _INT64:
                raise ValueError(f"{path}:{lineno}: timestamp {t} outside the int64 range")
            users.append(u)
            items.append(i)
            ratings.append(r)
            stamps.append(t)
    if not users:
        raise ValueError(f"{path}: no ratings found")
    # object arrays keep IDs of any size exact
    return (np.array(users, dtype=object), np.array(items, dtype=object),
            np.array(ratings), np.array(stamps, dtype=np.int64))


def load_ratings(path):
    """Parse a ratings file into a RatingsDataset.

    IDs are remapped to contiguous indices by sorted original ID. Repeated
    (user, item) pairs keep the last occurrence; the overwrite count is
    logged and reported on the dataset. Malformed lines, ratings outside
    [1, 5] and timestamps beyond int64 fail with the offending line number.

    A canonical file is parsed in array passes (see _parse_canonical); any
    other file goes through the line scan, the one path that reports errors.
    """
    lo, hi = 1.0, 5.0
    with open(path, "rb") as f:
        columns = _parse_canonical(f.read(), lo, hi)
    if columns is None:
        columns = _scan_lines(path, lo, hi)
    users, items, ratings, stamps = columns

    user_ids, uidx = np.unique(users, return_inverse=True)
    item_ids, iidx = np.unique(items, return_inverse=True)
    key = uidx * len(item_ids) + iidx
    # the first of each key in the reversed order is its last occurrence;
    # np.unique returns the keys sorted, so the result is in (user, item) order
    _, first = np.unique(key[::-1], return_index=True)
    last = len(key) - 1 - first
    duplicates = len(key) - len(last)
    if duplicates:
        log.warning("%s: %d duplicate (user, item) pairs; kept last occurrence", path, duplicates)
    return RatingsDataset(uidx[last], iidx[last], ratings[last], stamps[last],
                          len(user_ids), len(item_ids), duplicates)


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
