"""Seeded synthetic ratings file shaped like MovieLens-100K.

Lines follow ``UserID::MovieID::Rating::Timestamp``. The file is built so
that every branch of ``triosplit.ratings.load_ratings`` that real data takes
also runs here:

- user and item IDs are sparse, non-contiguous integers, so the ID remapping
  does real work;
- a few (user, item) pairs appear twice, the second time later in the file
  with a later timestamp, so the keep-last path runs;
- every user and every item has at least one rating, so the matrix shape is
  exactly ``users x items``.

Ratings come from a rank-``rank`` model plus user/item offsets and noise,
rounded and clipped to 1..5. Item popularity is Zipf-like and user activity
is log-normal with a floor of 20, as in MovieLens.
"""

from __future__ import annotations

import numpy as np

FIRST_TIMESTAMP = 874724710
LAST_TIMESTAMP = 893286638
MIN_PER_USER = 20


def _user_counts(rng, users, items, total):
    """Per-user rating counts: log-normal, at least MIN_PER_USER, summing to total."""
    raw = rng.lognormal(mean=0.0, sigma=1.0, size=users)
    spare = total - MIN_PER_USER * users
    counts = MIN_PER_USER + np.floor(raw / raw.sum() * spare).astype(np.int64)
    counts = np.minimum(counts, items)
    short = total - int(counts.sum())
    while short > 0:
        room = np.flatnonzero(counts < items)
        pick = rng.choice(room, size=min(short, len(room)), replace=False)
        counts[pick] += 1
        short = total - int(counts.sum())
    return counts


def generate(path, seed, users=943, items=1682, ratings=100_000, duplicates=20, rank=10):
    """Write the file and return ``{"bytes", "lines", "pairs", "duplicates"}``.

    ``ratings`` is the number of distinct (user, item) pairs asked for; a
    user handed more items by the coverage step than its quota keeps them
    all, so ``pairs`` can come out slightly above it. The file holds
    ``pairs + duplicates`` lines.
    """
    if not (MIN_PER_USER * users <= ratings <= users * items and items <= ratings
            and MIN_PER_USER <= items):
        raise ValueError("ratings must give every user and item a rating and fit the grid")
    rng = np.random.default_rng(seed)
    user_ids = np.sort(rng.choice(20 * users, size=users, replace=False)) + 1
    item_ids = np.sort(rng.choice(20 * items, size=items, replace=False)) + 1

    popularity = 1.0 / np.arange(1, items + 1) ** 0.8
    popularity = popularity[rng.permutation(items)]
    counts = _user_counts(rng, users, items, ratings)

    # Item j is first given to user owner[j]; the rest of each user's quota is
    # drawn by popularity from the items that user does not have yet.
    owner = rng.integers(users, size=items)
    rows, cols = [], []
    for u in range(users):
        forced = np.flatnonzero(owner == u)
        extra = max(int(counts[u]) - len(forced), 0)
        p = popularity.copy()
        p[forced] = 0.0
        drawn = rng.choice(items, size=extra, replace=False, p=p / p.sum())
        chosen = np.concatenate([forced, drawn])
        rows.append(np.full(len(chosen), u))
        cols.append(chosen)
    rows = np.concatenate(rows)
    cols = np.concatenate(cols)

    U = rng.standard_normal((users, rank)) * (0.8 / np.sqrt(rank))
    V = rng.standard_normal((items, rank))
    score = (3.5 + 0.4 * rng.standard_normal(users)[rows] + 0.4 * rng.standard_normal(items)[cols]
             + np.einsum("ij,ij->i", U[rows], V[cols]) + 0.5 * rng.standard_normal(len(rows)))
    values = np.clip(np.rint(score), 1, 5).astype(np.int64)
    stamps = rng.integers(FIRST_TIMESTAMP, LAST_TIMESTAMP, size=len(rows))

    order = rng.permutation(len(rows))
    rows, cols, values, stamps = rows[order], cols[order], values[order], stamps[order]
    again = rng.choice(len(rows), size=duplicates, replace=False)
    rows = np.concatenate([rows, rows[again]])
    cols = np.concatenate([cols, cols[again]])
    values = np.concatenate([values, rng.integers(1, 6, size=duplicates)])
    stamps = np.concatenate([stamps, np.full(duplicates, LAST_TIMESTAMP)])

    text = "".join(f"{u}::{i}::{r}::{t}\n" for u, i, r, t in
                   zip(user_ids[rows].tolist(), item_ids[cols].tolist(),
                       values.tolist(), stamps.tolist()))
    data = text.encode("ascii")
    with open(path, "wb") as f:
        f.write(data)
    return {"bytes": len(data), "lines": len(rows), "pairs": len(rows) - duplicates,
            "duplicates": duplicates}
