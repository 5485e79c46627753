"""Thresholded pseudolabel voting and per-participant bundle assembly.

For each category the coordinator sums, at every public-dataset index, the
credibility weights of the participants that voted that category, and admits
the index when that mass, as a fraction of the total weight of the
category's owners, strictly exceeds the threshold ``alpha``. The strict
inequality means ``alpha=0`` admits any index with a single vote and
``alpha=1`` admits nothing. The unweighted vote is the unit-weight call:
sums of 1.0 are exact vote and owner counts.

One kernel does the vote. It maps every vote to its category's position in
the sorted union of label spaces and sums weights with one ``np.bincount``
per chunk of public indices. A chunk holds about ``VOTE_CHUNK_CELLS``
(category, index) cells, so the vote's scratch memory does not grow with
the public dataset size. Every bin sums in participant order, which keeps
float results reproducible. A chunk's admitted cells are found with one
``np.flatnonzero`` over its category-major cells and split into category and
index by ``np.divmod``, which gives them in the same row-major order a 2-D
``np.nonzero`` would.

Before the vote, each participant's votes are checked and mapped to those
positions through the row's distinct values only: ``np.unique`` finds them
and the inverse map, ``np.searchsorted`` places each distinct value in the
union once, and the inverse spreads the positions back over the row. Dense
and sparse category ids take this one path.

A participant's bundle is the restriction of the admitted index sets to its
own label space, with any index claimed by two or more of those sets dropped
from all of them so the bundle never carries contradictory labels. One value
sort finds the repeats: the sets' indices are concatenated and sorted, and
equal neighbours are the shared values. Which values repeat does not depend
on how equal values are ordered, so no stable argsort is needed, and
``np.isin`` marks every occurrence of a shared value in the sets. A bundle
checks that its entries are disjoint with the same sort, without the mask.
An index set holds its indices as a read-only, one-dimensional int64 array,
from the vote to the wire: the sort, the conflict masks and the bundle's
rows work on it directly, and only the JSON boundary turns it into a list.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .domain import LabelSpace


class AggregationError(ValueError):
    """Malformed votes, weights, or threshold."""


@dataclass(frozen=True, eq=False)
class PseudolabelSet:
    """Admitted public-dataset indices for one category.

    ``indices`` is stored as a read-only 1-D int64 array copied from the
    given sequence. Two sets are equal when their categories and indices are;
    sets are not hashable.
    """

    category: int
    indices: np.ndarray

    def __post_init__(self):
        try:
            values = np.array(self.indices, dtype=np.int64)
        except OverflowError:
            raise AggregationError("indices must fit in int64") from None
        if values.ndim != 1:
            raise AggregationError(f"indices must be one-dimensional, got shape {values.shape}")
        if (values < 0).any():
            raise AggregationError("indices must be non-negative")
        if (values[1:] <= values[:-1]).any():
            raise AggregationError("indices must be strictly ascending")
        values.flags.writeable = False
        object.__setattr__(self, "indices", values)
        object.__setattr__(self, "category", int(self.category))

    def __eq__(self, other):
        if not isinstance(other, PseudolabelSet):
            return NotImplemented
        return self.category == other.category and np.array_equal(self.indices, other.indices)

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class PseudolabelBundle:
    """Conflict-free pseudolabel sets restricted to one participant's space."""

    owner: int
    entries: tuple[PseudolabelSet, ...]

    def __post_init__(self):
        cats = [e.category for e in self.entries]
        if any(b <= a for a, b in zip(cats, cats[1:])):
            raise AggregationError("bundle entries must be sorted by category")
        _, overlap = _repeated(self.entries)
        if len(overlap):
            raise AggregationError(
                f"bundle entries overlap on indices {np.unique(overlap)[:5].tolist()}"
            )

    def __len__(self) -> int:
        return sum(len(e) for e in self.entries)

    @classmethod
    def empty(cls, owner: int) -> "PseudolabelBundle":
        return cls(owner=owner, entries=())


@dataclass(frozen=True)
class CredibilityWeights:
    """Per-participant vote weights; 1.0 everywhere matches unweighted voting."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        if not vals:
            raise AggregationError("weights must be non-empty")
        if any(not np.isfinite(v) or v < 0 for v in vals):
            raise AggregationError("weights must be finite and non-negative")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    @classmethod
    def uniform(cls, n: int) -> "CredibilityWeights":
        return cls(values=(1.0,) * n)


# Cells (categories x public indices) the vote sums at once. Its scratch
# memory scales with this constant and the participant count, never with the
# public dataset size.
VOTE_CHUNK_CELLS = 2 ** 18


def _validate_votes(predictions: Sequence[np.ndarray],
                    label_spaces: Sequence[LabelSpace],
                    alpha: float, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check the votes and map them to dense category positions.

    Returns the sorted category union, the N x C ownership mask and the
    N x U matrix of each vote's position in the union.
    """
    if len(predictions) != len(label_spaces):
        raise AggregationError(
            f"{len(predictions)} prediction vectors for {len(label_spaces)} label spaces"
        )
    if len(predictions) == 0:
        raise AggregationError("need at least one participant")
    if not 0.0 <= alpha <= 1.0:
        raise AggregationError(f"alpha must lie in [0, 1], got {alpha}")
    if size < 1:
        raise AggregationError("public dataset size must be >= 1")
    union = np.array(category_union(label_spaces), dtype=np.int64)
    owned = np.zeros((len(label_spaces), len(union)), dtype=bool)
    for i, space in enumerate(label_spaces):
        owned[i, np.searchsorted(union, np.array(space.categories, dtype=np.int64))] = True
    dense = np.empty((len(predictions), size), dtype=np.int32)
    for i, vector in enumerate(predictions):
        row = np.asarray(vector, dtype=np.int64)
        if row.ndim != 1 or len(row) != size:
            raise AggregationError(
                f"participant {i}: prediction vector length {row.shape} != {size}"
            )
        values, inverse = np.unique(row, return_inverse=True)
        pos = np.minimum(np.searchsorted(union, values), len(union) - 1)
        valid = (union[pos] == values) & owned[i, pos]
        if not valid.all():
            bad = row[np.argmin(valid[inverse])]
            raise AggregationError(
                f"participant {i}: predicted category {bad} outside declared label space"
            )
        dense[i] = pos[inverse]
    return union, owned, dense


def category_union(label_spaces: Sequence[LabelSpace]) -> list[int]:
    union: set[int] = set()
    for space in label_spaces:
        union.update(space)
    return sorted(union)


def aggregate(predictions: Sequence[np.ndarray], label_spaces: Sequence[LabelSpace],
              alpha: float, size: int) -> dict[int, PseudolabelSet]:
    """Vote-count every category and admit indices by the strict threshold.

    Returns one PseudolabelSet per category in the union of the label spaces
    (possibly empty). An index is admitted for a category when
    votes / owners > alpha, with owners counting every participant whose
    space contains the category. This is the unit-weight weighted vote.
    """
    # At least one weight, so an empty federation fails in the vote's own check.
    unit = CredibilityWeights.uniform(max(len(label_spaces), 1))
    return aggregate_weighted(predictions, label_spaces, unit, alpha, size)


def aggregate_weighted(predictions: Sequence[np.ndarray],
                       label_spaces: Sequence[LabelSpace],
                       weights: CredibilityWeights, alpha: float,
                       size: int) -> dict[int, PseudolabelSet]:
    """Weighted variant: vote counts and owner totals sum credibility weights.

    A zero-weight participant still counts as an owner but contributes no vote
    mass; a category whose owners all have zero weight is rejected.
    """
    union, owned, dense = _validate_votes(predictions, label_spaces, alpha, size)
    if len(weights) != len(label_spaces):
        raise AggregationError(
            f"{len(weights)} weights for {len(label_spaces)} participants"
        )
    values = np.asarray(weights.values, dtype=np.float64)
    # Every sum runs in participant order, so float totals are reproducible
    # regardless of how callers parallelize around this.
    totals = np.zeros(len(union))
    for value, owns in zip(values, owned):
        totals += value * owns
    unweighted = np.flatnonzero(totals == 0.0)
    if len(unweighted):
        raise AggregationError(
            f"category {union[unweighted[0]]}: every owner has zero credibility weight"
        )
    n_cat = len(union)
    width = max(1, VOTE_CHUNK_CELLS // n_cat)
    hit_cats, hit_indices = [], []
    for lo in range(0, size, width):
        block = dense[:, lo:lo + width]
        span = block.shape[1]
        # Participant-major cells: bincount adds in input order, so each
        # (category, index) bin sums its voters' weights in participant order.
        cells = (block * span + np.arange(span)).ravel()
        mass = np.bincount(cells, weights=np.repeat(values, span), minlength=n_cat * span)
        hits = np.flatnonzero(mass.reshape(n_cat, span) / totals[:, None] > alpha)
        cats, cols = np.divmod(hits, span)
        hit_cats.append(cats)
        hit_indices.append(cols + lo)
    cats = np.concatenate(hit_cats)
    # A stable sort by category keeps each category's indices ascending.
    order = np.argsort(cats, kind="stable")
    per_category = np.split(np.concatenate(hit_indices)[order],
                            np.cumsum(np.bincount(cats, minlength=n_cat))[:-1])
    return {c: PseudolabelSet(c, indices) for c, indices in zip(union.tolist(), per_category)}


def _repeated(entries: Sequence[PseudolabelSet]) -> tuple[np.ndarray, np.ndarray]:
    """Find the indices that two or more of the sets share, with one value sort.

    Returns the sets' concatenated indices, in entry order, and the shared
    indices in ascending order (an index shared by k sets appears k - 1
    times).
    """
    flat = np.concatenate([e.indices for e in entries]) if entries else np.empty(0, np.int64)
    ordered = np.sort(flat)
    return flat, ordered[1:][ordered[1:] == ordered[:-1]]


def _drop_conflicts(entries: Sequence[PseudolabelSet]) -> list[PseudolabelSet]:
    """Drop every index claimed by two or more of the sets from all of them."""
    flat, shared = _repeated(entries)
    mask = np.isin(flat, shared)
    out, lo = [], 0
    for entry in entries:
        hi = lo + len(entry)
        drop = mask[lo:hi]
        if drop.any():
            entry = PseudolabelSet(entry.category, entry.indices[~drop])
        out.append(entry)
        lo = hi
    return out


def remove_global_conflicts(
        pseudo_sets: Mapping[int, PseudolabelSet]) -> dict[int, PseudolabelSet]:
    """Drop every index claimed by two or more categories, across all sets."""
    return dict(zip(pseudo_sets, _drop_conflicts(list(pseudo_sets.values()))))


def build_bundle(pseudo_sets: Mapping[int, PseudolabelSet], label_space: LabelSpace,
                 owner: int) -> PseudolabelBundle:
    """Restrict the admitted sets to one label space and drop conflicts.

    Conflict removal is scoped to the restricted sets only: an index shared
    with a category outside ``label_space`` is kept, because the owner never
    sees that competing claim.
    """
    restricted = [pseudo_sets[category] if category in pseudo_sets
                  else PseudolabelSet(category, ()) for category in sorted(label_space)]
    return PseudolabelBundle(owner=owner, entries=tuple(_drop_conflicts(restricted)))
