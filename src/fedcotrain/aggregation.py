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
the public dataset size. It is 2**15 so that a chunk's masses, 256 KiB of
floats, stay in cache from the bincount that fills them to the compare that
reads them: on vote-scale's shape (N = 50, C = 100, U = 1e5) on a 2-core
Xeon VM with 2 MiB of L2 a core, the vote alone took 36 ms at 2**15, 40 ms
at 2**17, and more at 2**14, 2**18 and 2**20. Every bin sums in participant
order, which keeps float results reproducible. The vote never divides: each
category gets an exact admission threshold, the smallest float mass whose
quotient by the owner total is above ``alpha`` (``_admission_thresholds``),
and a cell is admitted when its mass reaches it, which is exactly when
``mass / total > alpha``. Each vote is numbered into its chunk's cells once,
as it is checked: its union position times the chunk width, so a chunk's
cells are that block plus its column numbers. The last chunk keeps the full
width's stride; its unused columns hold zero mass, which no threshold admits.
A chunk's admitted cells are found with one ``np.flatnonzero`` over its
category-major cells and split into category and index by ``np.divmod``,
which gives them in the same row-major order a 2-D ``np.nonzero`` would.

Before the vote, each participant's votes are checked and mapped straight to
union positions by ``vote_positions``, with -1 for a vote outside the voter's
label space. One per-voter table of ``largest id + 1`` union positions, at
most ``domain.CATEGORY_LIMIT`` int32 entries, maps every vote with one
``take``, so a row of U votes costs O(U) whatever the size of the space. The
wire coordinator runs the same check as each vote arrives.

A participant's bundle is the restriction of the admitted index sets to its
own label space, with any index claimed by two or more of those sets dropped
from all of them so the bundle never carries contradictory labels. Every
index names a row of the public dataset, so it lies below its size U: the
vote admits only indices below ``size``, and the wire client checks a
bundle's indices against U before it builds the bundle. A table over every
index therefore stays within the public set; a direct call with an index far
past any public set fails when numpy allocates that table. ``_repeated``
marks the shared positions of the sets' concatenated indices by counting
every index with one ``np.bincount`` and taking each count back; conflict
removal keeps the rest with one compress and gives each set its stretch,
and a bundle refuses entries with any shared position, naming them. An
index set holds its indices as a read-only, one-dimensional int64 array,
from the vote to the wire: the count, the conflict masks and the bundle's
rows work on it directly, and the wire carries its bytes
(``netproto.array_text``).

Each fact is checked once, where it enters: the vote checks its inputs, and
the public constructors of ``PseudolabelSet`` and ``PseudolabelBundle``
check whatever a caller, a file or the wire gives them. What this module
derives from checked values is built by each class's ``_valid``, with no
copy and no re-check: the vote's per-category slices of one array of
admitted indices, the stretches conflict removal keeps, and
``build_bundle``'s bundle. Each array is made read-only before it is sliced,
so no returned view can be made writeable again.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .domain import LabelSpace, category_id


class AggregationError(ValueError):
    """Malformed votes, weights, or threshold."""


@dataclass(frozen=True, eq=False)
class PseudolabelSet:
    """Admitted public-dataset indices for one category.

    ``indices`` is stored as a read-only 1-D int64 array copied from the
    given integers; a float, a string or a bool is refused, never truncated or
    parsed. Two sets are equal when their categories and indices are; sets are
    not hashable.
    """

    category: int
    indices: np.ndarray

    def __post_init__(self):
        values = np.array(self.indices)
        if values.ndim != 1:
            raise AggregationError(f"indices must be one-dimensional, got shape {values.shape}")
        if isinstance(self.indices, np.ndarray):
            integral = values.dtype.kind in "iu"
            # an unsigned value past int64 would wrap negative in the cast below
            if values.dtype.kind == "u" and len(values) and values.max() > np.iinfo(np.int64).max:
                raise AggregationError("indices must fit in int64")
        else:
            # numpy reads a bool beside ints as an int, so a sequence is judged by its values
            integral = all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                           for v in self.indices)
            if integral:
                try:
                    values = np.array(self.indices, dtype=np.int64)
                except OverflowError:
                    raise AggregationError("indices must fit in int64") from None
        if len(values) and not integral:
            raise AggregationError("indices must be integers")
        values = values.astype(np.int64, copy=False)
        # a strictly ascending set that starts at 0 or above is non-negative,
        # so a valid set takes one pass; a bad one is told the first rule it breaks
        if len(values) and (values[0] < 0 or (values[1:] <= values[:-1]).any()):
            if (values < 0).any():
                raise AggregationError("indices must be non-negative")
            raise AggregationError("indices must be strictly ascending")
        values.flags.writeable = False
        object.__setattr__(self, "indices", values)
        object.__setattr__(self, "category", category_id(self.category))

    def __eq__(self, other):
        if not isinstance(other, PseudolabelSet):
            return NotImplemented
        return self.category == other.category and np.array_equal(self.indices, other.indices)

    def __len__(self) -> int:
        return len(self.indices)

    @classmethod
    def _valid(cls, category: int, indices: np.ndarray) -> "PseudolabelSet":
        """A set of a checked id and read-only checked indices, not copied or re-checked."""
        pset = object.__new__(cls)
        object.__setattr__(pset, "category", category)
        object.__setattr__(pset, "indices", indices)
        return pset


@dataclass(frozen=True)
class PseudolabelBundle:
    """Conflict-free pseudolabel sets restricted to one participant's space.

    ``owner`` is the participant's id, a non-negative integer.
    """

    owner: int
    entries: tuple[PseudolabelSet, ...]

    def __post_init__(self):
        object.__setattr__(self, "owner", _owner(self.owner))
        _check_order(self.entries)
        flat, shared = _repeated(self.entries)
        if shared.any():
            raise AggregationError(
                f"bundle entries overlap on indices {np.unique(flat[shared])[:5].tolist()}"
            )

    def __len__(self) -> int:
        return sum(len(e) for e in self.entries)

    @classmethod
    def empty(cls, owner: int) -> "PseudolabelBundle":
        return cls(owner=owner, entries=())

    @classmethod
    def _valid(cls, owner: int, entries: tuple[PseudolabelSet, ...]) -> "PseudolabelBundle":
        """A bundle of a checked owner and sorted, disjoint entries, not re-checked."""
        bundle = object.__new__(cls)
        object.__setattr__(bundle, "owner", owner)
        object.__setattr__(bundle, "entries", entries)
        return bundle


def _check_order(entries: Sequence[PseudolabelSet]) -> None:
    """Refuse entries whose categories do not strictly ascend."""
    cats = [e.category for e in entries]
    if any(b <= a for a, b in zip(cats, cats[1:])):
        raise AggregationError("bundle entries must be sorted by category")


def _owner(value) -> int:
    """``value`` as a bundle owner: a non-negative integer, else an error; a bool is none."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            value = operator.index(value)
        except TypeError:
            pass
        else:
            if value >= 0:
                return value
    raise AggregationError(f"bundle owner {value!r} is not a non-negative integer")


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
VOTE_CHUNK_CELLS = 2 ** 15


def vote_positions(row: np.ndarray, space: LabelSpace, targets: np.ndarray | None = None,
                   out: np.ndarray | None = None) -> np.ndarray:
    """Map a row of int64 votes to ``targets``, and every vote outside ``space`` to -1.

    ``targets`` holds one int32 position per category of the space, in ascending
    category order; a vote for the space's j-th smallest category maps to
    ``targets[j]``, or to j without it. One table of ``largest id + 1`` targets
    maps every vote with one ``take``, into ``out`` when it is given; a mask,
    built only when the row's min or max calls for it, marks votes off the table.
    """
    own = np.sort(np.array(space.categories, dtype=np.int64))
    if targets is None:
        targets = np.arange(len(own), dtype=np.int32)
    top = own[-1]
    table = np.full(top + 1, -1, dtype=np.int32)
    table[own] = targets
    # "clip" sends a vote outside the table to one of its ends; the mask undoes that.
    # Not "wrap": numpy wraps by adding the table's length once per wrap, so a
    # vote of -2**63 from the wire would stall the coordinator's one loop.
    mapped = table.take(row, out=out, mode="clip")
    if len(row) and (row.min() < 0 or row.max() > top):
        mapped[(row < 0) | (row > top)] = -1
    return mapped


def _validate_votes(predictions: Sequence[np.ndarray],
                    label_spaces: Sequence[LabelSpace],
                    alpha: float, size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Check the votes and number each one's first vote cell.

    Returns the sorted category union, the N x C ownership mask, the N x U
    matrix of each vote's position in the union times the chunk width, and
    that width: the public indices of one ``VOTE_CHUNK_CELLS`` chunk.
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
    union = np.array(sorted({c for space in label_spaces for c in space}), dtype=np.int64)
    owned = np.zeros((len(label_spaces), len(union)), dtype=bool)
    width = max(1, VOTE_CHUNK_CELLS // len(union))
    dense = np.empty((len(predictions), size), dtype=np.int32)
    for i, (vector, space) in enumerate(zip(predictions, label_spaces)):
        owned[i, np.searchsorted(union, np.array(space.categories, dtype=np.int64))] = True
        row = np.asarray(vector, dtype=np.int64)
        if row.ndim != 1 or len(row) != size:
            raise AggregationError(
                f"participant {i}: prediction vector length {row.shape} != {size}"
            )
        # the union is sorted, so this voter's union positions, ascending,
        # follow its categories in ascending order
        firsts = np.flatnonzero(owned[i]).astype(np.int32) * np.int32(width)
        positions = vote_positions(row, space, firsts, out=dense[i])
        if positions.min() < 0:
            bad = row[np.argmax(positions < 0)]
            raise AggregationError(
                f"participant {i}: predicted category {bad} outside declared label space"
            )
    return union, owned, dense, width


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
    union, owned, dense, width = _validate_votes(predictions, label_spaces, alpha, size)
    if len(weights) != len(label_spaces):
        raise AggregationError(
            f"{len(weights)} weights for {len(label_spaces)} participants"
        )
    values = np.asarray(weights.values, dtype=np.float64)
    # Every sum runs in participant order, so float totals are reproducible
    # regardless of how callers parallelize around this. A total past the
    # float range is inf, which admits nothing, as the division would.
    totals = np.zeros(len(union))
    with np.errstate(over="ignore"):
        for value, owns in zip(values, owned):
            totals += value * owns
    unweighted = np.flatnonzero(totals == 0.0)
    if len(unweighted):
        raise AggregationError(
            f"category {union[unweighted[0]]}: every owner has zero credibility weight"
        )
    thresholds = _admission_thresholds(totals, alpha)[:, None]
    n_cat = len(union)
    columns = np.arange(width, dtype=np.int32)
    cell_weights = np.repeat(values, width)
    hit_cats, hit_indices = [], []
    for lo in range(0, size, width):
        block = dense[:, lo:lo + width]
        span = block.shape[1]
        if span < width:  # the last chunk, whose columns from span on get no vote
            cell_weights = np.repeat(values, span)
        # Participant-major cells: bincount adds in input order, so each
        # (category, index) bin sums its voters' weights in participant order.
        cells = block + columns[:span]
        mass = np.bincount(cells.ravel(), weights=cell_weights, minlength=n_cat * width)
        # a NaN threshold (an infinite total) admits nothing, without a warning
        with np.errstate(invalid="ignore"):
            hits = np.flatnonzero(mass.reshape(n_cat, width) >= thresholds)
        cats, cols = np.divmod(hits, width)
        hit_cats.append(cats)
        hit_indices.append(cols + lo)
    # positions below CATEGORY_LIMIT fit in int16, which numpy sorts stably by radix
    cats = np.concatenate(hit_cats).astype(np.int16)
    # A stable sort by category keeps each category's indices ascending.
    admitted = np.concatenate(hit_indices)[np.argsort(cats, kind="stable")].astype(
        np.int64, copy=False)
    admitted.flags.writeable = False
    ends = np.cumsum(np.bincount(cats, minlength=n_cat)).tolist()
    # each piece is an ascending run of indices below size, under an id of a checked space
    return {c: PseudolabelSet._valid(c, admitted[lo:hi])
            for c, lo, hi in zip(union.tolist(), [0] + ends, ends)}


def _admission_thresholds(totals: np.ndarray, alpha: float) -> np.ndarray:
    """Each positive total's smallest float mass m with ``m / total > alpha``.

    Correctly rounded division is monotone in m, so ``mass >= threshold``
    admits exactly the masses that ``mass / total > alpha`` does. No mass
    passes an infinite total (its quotient is 0 or NaN), whose threshold is
    NaN. The search starts at ``alpha * total + total * 2**-1075``: the
    quotient rounds above alpha once it passes alpha by half a float spacing,
    and a spacing is never below 2**-1074, so the start lies within a few
    floats of the threshold even when alpha is 0. It then steps up with
    ``np.nextafter`` until the mass passes and down while the float below it
    still does.
    """
    thresholds = np.full(len(totals), np.nan)
    finite = np.isfinite(totals)
    total = totals[finite]
    mass = alpha * total + np.ldexp(total, -1075)
    fails = mass / total <= alpha
    while fails.any():
        # past the largest float is inf, the threshold when alpha is 1 and
        # the total is that float
        with np.errstate(over="ignore"):
            mass[fails] = np.nextafter(mass[fails], np.inf)
        fails = mass / total <= alpha
    below = np.nextafter(mass, 0.0)
    passes = below / total > alpha
    while passes.any():
        mass[passes] = below[passes]
        below = np.nextafter(mass, 0.0)
        passes = below / total > alpha
    thresholds[finite] = mass
    return thresholds


def _repeated(entries: Sequence[PseudolabelSet]) -> tuple[np.ndarray, np.ndarray]:
    """Find the indices that two or more of the sets share.

    Returns the sets' concatenated indices, in entry order, and the mask of
    the positions whose index another set holds too: one ``np.bincount`` of
    every index, with each index's count taken back.
    """
    flat = np.concatenate([e.indices for e in entries]) if entries else np.empty(0, np.int64)
    return flat, np.bincount(flat).take(flat) > 1


def _drop_conflicts(entries: Sequence[PseudolabelSet]) -> list[PseudolabelSet]:
    """Drop every index claimed by two or more of the sets from all of them.

    One compress keeps the sets' unshared indices, and each set that lost one
    gets its stretch of them; a set that lost none is returned as it is.
    """
    flat, shared = _repeated(entries)
    if not shared.any():
        return list(entries)
    keep = ~shared
    kept = flat[keep]
    kept.flags.writeable = False
    sizes = np.array([len(e) for e in entries])
    counts = np.zeros(len(entries), dtype=np.int64)
    filled = sizes > 0
    # reduceat sums from each start to the next, so it is given only non-empty sets
    counts[filled] = np.add.reduceat(keep, (np.cumsum(sizes) - sizes)[filled], dtype=np.int64)
    out, hi = [], 0
    for entry, size, count in zip(entries, sizes.tolist(), counts.tolist()):
        lo, hi = hi, hi + count
        # what a valid set keeps of its indices is still ascending and non-negative
        out.append(entry if count == size else PseudolabelSet._valid(entry.category, kept[lo:hi]))
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
    entries = tuple(_drop_conflicts(restricted))
    # conflict removal left the entries disjoint; a caller's set may sit under
    # another category's key, so their order is still checked
    _check_order(entries)
    return PseudolabelBundle._valid(_owner(owner), entries)
