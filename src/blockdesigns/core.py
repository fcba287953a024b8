"""Design types and the verifiers for their defining properties.

A design is a multiset of equal-size blocks over points 0..v-1.  Blocks are
stored as strictly increasing tuples so that block equality is set equality
and the block list can carry multiset semantics (duplicates allowed and
significant).

Every count here is exact.  A design's blocks are validated once, at
construction, as one b x k array of points: block sizes, integer points,
range and strict increase are checked on the whole array, and only a
failing block is formatted into the error.  Every design keeps that
array, read-only, as ``Design._members``.  Code that already holds the
blocks as an array (the file parser, the generators and the union
construction) builds the design through ``Design._from_members``, which
checks that array and keeps it instead of building one from the tuples.
``Design._rows`` packs the blocks into 64-bit words over the points that
lie in some block, one row per block.  Replication counts are point
counts over the blocks.  A t-subset coverage spectrum takes each point p
in turn and packs the columns of the later points over the blocks
through p only, so its cost follows the replication rather than the
block count; coverages are popcounts of ANDed columns.  Pairs in a dense
design are counted at once instead, as the meets of the columns of all
points over all blocks.  The pairwise intersection histogram is
popcounts of ANDed block rows, and derived coverage numbers use
``fractions.Fraction``.  Binomials that are only compared with a bound
are computed no further than the bound (``_capped_comb``).

A design may carry point permutations that map its blocks onto themselves
(``Design.automorphisms``; the generators and the union construction
supply them, design files never do).  They are checked exactly on first
use (``Design._symmetry``), and a false one raises DesignError.  The
spectrum then counts only the t-subsets through one point of each point
orbit, and the profile only the meets of one block of each block orbit,
weighted by the orbit sizes (Kramer and Mesner, "t-designs on
hypergraphs", Discrete Math. 15, 1976); both divide out exactly.
"""

from __future__ import annotations

import array
import itertools
import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction

import numpy as np

__all__ = [
    "Block",
    "Design",
    "DesignError",
    "DesignParams",
    "IntersectionProfile",
    "MAX_POINTS",
    "MAX_ROW_WORDS",
    "MAX_SPECTRUM_WORDS",
    "NonConstantReplication",
    "PointSet",
    "intersection_profile",
    "is_automorphism",
    "is_simple",
    "is_trivial",
    "lambda_j",
    "make_design",
    "t_coverage_spectrum",
    "verify_ibd",
]


class DesignError(ValueError):
    """Malformed design data or a violated operation precondition."""


class NonConstantReplication(DesignError):
    """Some point's replication count differs from the rest."""

    def __init__(self, point: int, count: int, expected: int):
        super().__init__(
            f"point {point} lies in {count} blocks, expected {expected}"
        )
        self.point = point
        self.count = count
        self.expected = expected


Block = tuple[int, ...]

# Most points a PointSet may have, checked before anything of size v is
# built.  At this bound `verify` on one block peaks at 17 MB (111 MB with
# a label line: v labels and the set that checks them); a block row is 128 KB.
MAX_POINTS = 1 << 20

# Most words of ANDed columns that t_coverage_spectrum may count.  Before
# packing anything it bounds them by summing, over the least point p of a
# t-subset, C(u, t-1) times the words of a column over the r_p blocks
# through p, where u = min(v-1-p, r_p(k-1)) is the most later points those
# blocks can hold; the sum stops once it passes the bound.  On a 2-core
# Xeon: 3-(256,128,63) at t=3 needs 11.1 M (0.4 s), the AG(3,8) plane
# design 44.5 M (1.3 s), AG(2,32) 178 M (2.0 s).  Counted once per point
# orbit, the sum runs over one point p of each orbit with
# u = min(v-1, r_p(k-1)): 3-(1024,512,255) built from AG(2,32) needs 8.4 M
# words (0.1 s) instead of 2.85 G.  At t=2 with no automorphisms all pairs
# may be counted at once, as the meets of the columns of the s points in
# some block over all b blocks: exactly C(s,2) * ceil(b/64) words.  That
# kernel is taken when those words times _PAIR_WORD_COST are fewer than
# the s * (b*k + v) elements the point-by-point path scans (one pass over
# the b x k members and one bincount of length v per point), and the
# words are within this bound: 3-(256,128,127) counts 261 K words (4 ms
# instead of 32 ms), while an STS(999) would need 1.3 G words and stays
# point by point.
MAX_SPECTRUM_WORDS = 1 << 28

# Time of one word of the all-pairs kernel (packing, AND, popcount and
# bincount) in elements of the point-by-point path.  Timed on 25 designs
# on a 2-core Xeon, the kernel won on every design with at most 0.14
# words per element (AG(2,16): 2.6 ms against 5.0 ms) and on K_64 at
# 0.246, and lost on every one from 0.25 on (AG(2,32): 45 ms against
# 33 ms; K_200, K_400), so the crossover is taken at 1/5.
_PAIR_WORD_COST = 5

# Most uint64 words of packed block rows (128 MB), checked before packing:
# b rows of ceil(s/64) words, s the points that lie in some block.  The
# 7308-block catalog design packs 7308 words, 3-(1024,512,255) 32,736 and
# the trivial design C(22, 11) 705,432.
MAX_ROW_WORDS = 1 << 24

# Words of ANDed rows that one numpy call holds (512 KB), and of packed
# columns that one dense slice of booleans fills.  The 7308-block catalog
# design meets 8 block rows with all later rows per call; 64 rows, no
# faster, raised peak memory by about 9 MB.
_CHUNK_WORDS = 1 << 16

# Rows of a members array turned into block tuples at a time, so that no
# second list of all the rows is alive next to the tuples.
_TUPLE_ROWS = 1024


@dataclass(frozen=True)
class PointSet:
    """v labelled points indexed 0..v-1.

    Labels are optional display names; the cyclic generators use them to
    mark the fixed point (points 0..n-1 carry their residue, point n is
    labelled "inf").
    """

    size: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if self.size < 2:
            raise DesignError(f"point set needs at least 2 points, got {self.size}")
        if self.size > MAX_POINTS:
            raise DesignError(
                f"point set of {self.size} points is above the limit of {MAX_POINTS}"
            )
        if self.labels is not None:
            if len(self.labels) != self.size:
                raise DesignError(
                    f"{len(self.labels)} labels for {self.size} points"
                )
            if len(set(self.labels)) != self.size:
                raise DesignError("point labels must be distinct")


@dataclass(frozen=True)
class _Orbits:
    """The orbits of a permutation group on 0..n-1: the least element of
    each orbit, ascending, and the orbit sizes."""

    reps: np.ndarray
    sizes: np.ndarray


@dataclass(frozen=True)
class Design:
    """A block multiset over a point set; every block has size k.

    `automorphisms` holds point permutations, each as the tuple of images
    of 0..v-1, that map the blocks onto themselves.  They are a claim that
    `_symmetry` checks on first use; the verifiers then count once per
    orbit.  They take no part in equality or hashing.

    `_members` holds the blocks as a read-only b x k array of points, in
    the smallest unsigned integer type that holds every point: the array
    that validation builds, or the one `_from_members` was given.
    """

    points: PointSet
    blocks: tuple[Block, ...]
    k: int
    automorphisms: tuple[tuple[int, ...], ...] = field(
        default=(), compare=False, repr=False
    )

    def __post_init__(self) -> None:
        v = self.points.size
        if not 2 <= self.k < v:
            raise DesignError(f"block size must satisfy 2 <= k < v (k={self.k}, v={v})")
        members = self.__dict__.get("_members")
        if members is None:
            members = _block_array(self.blocks, self.k, v)
            members.flags.writeable = False
        else:  # set by _from_members, whose blocks are its rows
            members = _checked_members(members, v, self.blocks)
        self.__dict__["_members"] = members

    @classmethod
    def _from_members(cls, points: PointSet, members: np.ndarray,
                      automorphisms=()) -> "Design":
        """The design whose blocks are the rows of `members`, a b x k
        integer array (or object array of ints).  The array is checked as
        _block_array checks tuples, with the same errors, and kept as
        `_members` in the smallest unsigned type that holds every point,
        so it is never built again."""
        design = cls.__new__(cls)
        design.__dict__["_members"] = members
        cls.__init__(design, points, _tuples(members), members.shape[1], automorphisms)
        return design

    @cached_property
    def _rows(self) -> np.ndarray:
        """Block i as the bits of row i, in ceil(s/64) read-only uint64
        words with zero padding bits, packed on first use.  Bit j stands
        for the j-th of the s points that lie in some block, so points in
        no block cost nothing.

        Raises DesignError before packing when the rows would hold more
        than MAX_ROW_WORDS words.
        """
        members = self._members
        support = np.flatnonzero(_replication(self))
        nwords = (len(support) + 63) // 64
        if len(members) * nwords > MAX_ROW_WORDS:
            raise DesignError(
                f"the rows of {len(members)} blocks over {len(support)} points "
                f"would hold {len(members) * nwords} words, above the limit of "
                f"{MAX_ROW_WORDS}"
            )
        if len(support) < self.points.size:
            members = np.searchsorted(support, members)
        rows = np.empty((len(members), nwords), dtype=np.uint64)
        # Slices of about _CHUNK_WORDS packed words: 64 booleans each.
        step = max(1, _CHUNK_WORDS // max(1, nwords))
        for lo in range(0, len(members), step):
            part = members[lo : lo + step]
            bits = np.zeros((len(part), 64 * nwords), dtype=bool)
            bits[np.arange(len(part))[:, None], part] = True
            rows[lo : lo + step] = np.packbits(
                bits, axis=1, bitorder="little"
            ).view("<u8")
        rows.flags.writeable = False
        return rows

    @cached_property
    def _masks(self) -> tuple[int, ...]:
        """Block i as the Python int with bit p set for each of its points
        p: the form the resolution and PRP searches combine."""
        masks = []
        for block in self.blocks:
            mask = 0
            for p in block:
                mask |= 1 << p
            masks.append(mask)
        return tuple(masks)

    @cached_property
    def _symmetry(self) -> tuple[_Orbits, _Orbits] | None:
        """The point and block orbits of the group the automorphisms
        generate, or None when there are none.

        Raises DesignError when a generator is not a permutation of
        0..v-1 or does not map the block multiset onto itself.
        """
        if not self.automorphisms:
            return None
        v = self.points.size
        members = self._members
        order = _row_order(members)
        listed = members[order]
        point_perms, block_perms = [], []
        for i, gen in enumerate(self.automorphisms):
            perm = _as_permutation(gen, v)
            if perm is None:
                raise DesignError(
                    f"automorphism {i} is not a permutation of 0..{v - 1}"
                )
            blocks = _block_permutation(members, perm, order, listed)
            if blocks is None:
                raise DesignError(
                    f"automorphism {i} does not map the blocks onto themselves"
                )
            point_perms.append(perm)
            block_perms.append(blocks)
        return _orbits(point_perms, v), _orbits(block_perms, len(self.blocks))


def _block_array(blocks, k: int, v: int) -> np.ndarray:
    """The blocks as a b x k array of points, in the smallest unsigned
    integer type that holds v-1.

    Raises DesignError naming the first block that does not have k points,
    holds a point that is not an integer, starts below 0 or ends above
    v-1, or does not strictly increase (checked in that order within a
    block).  The checks run on the whole array at once; only the failing
    block is formatted.
    """
    sized = len(blocks)
    if set(map(len, blocks)) - {k}:
        sized = next(i for i, block in enumerate(blocks) if len(block) != k)
    dtype = np.min_scalar_type(v - 1)
    points, integral = _integer_points(blocks[:sized], k, dtype)
    _check_points(points, v, blocks)
    if integral < sized:
        raise DesignError(f"block {blocks[integral]} has a point that is not an integer")
    if sized < len(blocks):
        block = blocks[sized]
        raise DesignError(f"block {block} has size {len(block)}, expected {k}")
    return points


def _check_points(points: np.ndarray, v: int, blocks) -> None:
    """Raise DesignError naming blocks[i] for the first row i of points
    that starts below 0 or ends above v-1, or else does not strictly
    increase."""
    ends = (points[:, 0] < 0) | (points[:, -1] >= v)
    bad = ends | (points[:, 1:] <= points[:, :-1]).any(axis=1)
    if bad.any():
        i = int(bad.argmax())
        if ends[i]:
            raise DesignError(f"block {blocks[i]} has points outside 0..{v - 1}")
        raise DesignError(f"block {blocks[i]} is not strictly increasing")


def _checked_members(members: np.ndarray, v: int, blocks) -> np.ndarray:
    """members, the integer array whose rows are `blocks`, checked as
    _block_array checks the tuples, as a read-only array of the smallest
    unsigned type that holds v-1."""
    _check_points(members, v, blocks)
    members = members.astype(np.min_scalar_type(v - 1), copy=False)
    members.flags.writeable = False
    return members


def _tuples(members: np.ndarray) -> tuple[Block, ...]:
    """The rows of members as tuples of Python ints."""
    blocks: list[Block] = []
    for lo in range(0, len(members), _TUPLE_ROWS):
        blocks.extend(map(tuple, members[lo : lo + _TUPLE_ROWS].tolist()))
    return tuple(blocks)


# array.array type codes by item size (the sizes of "I" and "L" vary by
# platform).
_TYPECODES = {array.array(code).itemsize: code for code in "QLIHB"}


def _integer_points(blocks, k: int, dtype: np.dtype) -> tuple[np.ndarray, int]:
    """(points, n): the blocks before the first one holding a point that is
    not an integer, n of them, as an n x k array.

    The points are read into a bytearray or array.array of `dtype`, which
    takes integers (through __index__) that fit it and nothing else.  When
    that fails, some point is not an integer or lies outside 0..v-1; the
    blocks are then scanned for the first point that is not an integer,
    and those before it are kept as Python ints, of any size.
    """
    flat = itertools.chain.from_iterable(blocks)
    try:
        if dtype.itemsize == 1:
            buffer = bytearray(flat)
        else:
            buffer = array.array(_TYPECODES[dtype.itemsize], list(flat))
        return np.frombuffer(buffer, dtype=dtype).reshape(len(blocks), k), len(blocks)
    except (TypeError, ValueError, OverflowError):
        pass
    n = next(
        (
            i
            for i, block in enumerate(blocks)
            if not all(isinstance(p, numbers.Integral) for p in block)
        ),
        len(blocks),
    )
    return np.array(blocks[:n], dtype=object).reshape(n, k), n


def _as_permutation(gen, v: int) -> np.ndarray | None:
    """gen as an integer array when it is a permutation of 0..v-1."""
    perm = np.asarray(gen)
    if perm.shape != (v,) or perm.dtype.kind not in "iu":
        return None
    if perm.min() < 0 or perm.max() >= v:
        return None
    hit = np.zeros(v, dtype=bool)
    hit[perm] = True
    return perm if hit.all() else None


def _row_order(rows: np.ndarray) -> np.ndarray:
    """The indices of the rows in an order that depends only on their
    contents: lexicographic on each row's bytes, zero-padded and read as
    64-bit words.  Two arrays hold the same rows as a multiset exactly when
    they are equal in this order."""
    b, width = len(rows), rows.shape[1] * rows.itemsize
    padded = np.zeros((b, -(-width // 8) * 8), dtype=np.uint8)
    padded[:, :width] = rows.view(np.uint8).reshape(b, width)
    return np.lexsort(padded.view(np.uint64).T)


def _block_permutation(members, perm, order, listed) -> np.ndarray | None:
    """The block permutation i -> j with perm(block i) = block j, or None
    when perm does not map the blocks (the rows of members; `listed` holds
    them in their _row_order `order`) onto themselves as a multiset."""
    image = np.take(perm.astype(members.dtype), members)
    image.sort(axis=1)
    image_order = _row_order(image)
    if not np.array_equal(image[image_order], listed):
        return None
    blocks = np.empty(len(members), dtype=np.intp)
    blocks[image_order] = order
    return blocks


def _orbits(perms, n: int) -> _Orbits:
    """The orbits on 0..n-1 of the group the permutations generate, by
    min-label propagation: each element takes the least label among its
    images and preimages, and then its label's label, until no label
    changes."""
    label = np.arange(n)
    while True:
        new = label.copy()
        for perm in perms:
            np.minimum(new, new[perm], out=new)
            new[perm] = np.minimum(new[perm], new)
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    reps = np.flatnonzero(label == np.arange(n))
    return _Orbits(reps, np.bincount(label)[reps])


def is_automorphism(design: Design, perm) -> bool:
    """True when perm, the images of 0..v-1, is a permutation that maps
    the blocks of design onto themselves as a multiset."""
    perm = _as_permutation(perm, design.points.size)
    if perm is None:
        return False
    members = design._members
    order = _row_order(members)
    return _block_permutation(members, perm, order, members[order]) is not None


def make_design(v, blocks, labels=None, k=None) -> Design:
    """Canonicalize raw block member lists (sorting each) into a Design."""
    canon = []
    for block in blocks:
        members = sorted(block)
        if len(set(members)) != len(members):
            raise DesignError(f"block {block} repeats a point")
        canon.append(tuple(members))
    if k is None:
        if not canon:
            raise DesignError("cannot infer block size from an empty design")
        k = len(canon[0])
    points = PointSet(v, tuple(labels) if labels is not None else None)
    return Design(points=points, blocks=tuple(canon), k=k)


@dataclass(frozen=True)
class DesignParams:
    """Exact (t, v, b, r, k, lambda) bundle for a t-design.

    Construction enforces the counting identities that any real design
    satisfies: b k = v r, and the derived coverages at levels 0 and 1
    (block count and replication) must come out integral and equal to b
    and r.  For t = 2 this is the usual lambda = r(k-1)/(v-1) relation.
    """

    t: int
    v: int
    b: int
    r: int
    k: int
    lam: int

    def __post_init__(self) -> None:
        if not 2 <= self.k < self.v:
            raise DesignError(f"need 2 <= k < v, got k={self.k} v={self.v}")
        if not 1 <= self.t <= self.k:
            raise DesignError(f"need 1 <= t <= k, got t={self.t} k={self.k}")
        if min(self.b, self.r, self.lam) < 0:
            raise DesignError("counts must be nonnegative")
        if self.b * self.k != self.v * self.r:
            raise DesignError(
                f"bk = vr violated: {self.b}*{self.k} != {self.v}*{self.r}"
            )
        for j, expected in ((0, self.b), (1, self.r)):
            if j <= self.t:
                derived = lambda_j(self, j)
                if derived != expected:
                    raise DesignError(
                        f"coverage at level {j} is {derived}, "
                        f"inconsistent with declared value {expected}"
                    )

    def as_tuple(self) -> tuple[int, int, int, int]:
        return (self.v, self.b, self.r, self.k)


@dataclass(frozen=True)
class IntersectionProfile:
    """Histogram of |A∩B| over unordered pairs of distinct block instances.

    counts[i] is the number of pairs meeting in exactly i points; the
    vector has length k+1 and counts[k] > 0 exactly when some block is
    repeated.
    """

    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.counts:
            raise DesignError("profile needs at least one entry")
        if any(c < 0 for c in self.counts):
            raise DesignError("profile entries must be nonnegative")

    @property
    def pair_count(self) -> int:
        return sum(self.counts)

    @property
    def simple(self) -> bool:
        return self.counts[-1] == 0


def verify_ibd(design: Design) -> DesignParams:
    """Check constant replication and return the (v, b, r, k) parameters.

    Raises NonConstantReplication naming the first deviating point.
    """
    counts = _replication(design)
    r = int(counts[0])
    deviating = np.flatnonzero(counts != r)
    if deviating.size:
        point = int(deviating[0])
        raise NonConstantReplication(point=point, count=int(counts[point]), expected=r)
    return DesignParams(
        t=1, v=design.points.size, b=len(design.blocks), r=r, k=design.k, lam=r
    )


def _replication(design: Design) -> np.ndarray:
    """The number of blocks through each point."""
    return np.bincount(design._members.ravel(), minlength=design.points.size)


def t_coverage_spectrum(design: Design, t: int) -> dict[int, int]:
    """Map coverage-count -> number of t-subsets with that coverage.

    Exhaustive over all C(v, t) t-subsets; the design is a t-design with
    coverage lam exactly when the result is {lam: C(v, t)}.  The subsets
    with least point p are counted on the blocks through p: the coverage
    of {p} plus a (t-1)-subset of later points is the popcount of the AND
    of their columns over those blocks.  At t = 2 with no automorphisms,
    when that is cheaper (see MAX_SPECTRUM_WORDS), every pair is counted
    at once as the meet of two columns over all blocks.

    When the design carries automorphisms and t >= 2, only the subsets
    through one point x of each point orbit P are counted, as hist_x; the
    coverage is constant on orbits, so hist = sum over P of |P| hist_x / t.
    Raises DesignError before packing anything when a bound on the words
    to count exceeds MAX_SPECTRUM_WORDS.
    """
    k = design.k
    if not 1 <= t <= k:
        raise DesignError(f"need 1 <= t <= k, got t={t} k={k}")
    v, b = design.points.size, len(design.blocks)
    replication = _replication(design)
    symmetry = design._symmetry if t >= 2 else None
    all_pairs = False
    if symmetry is None:
        if t == 2:
            s = int(np.count_nonzero(replication))
            pair_words = s * (s - 1) // 2 * ((b + 63) // 64)
            all_pairs = (pair_words <= MAX_SPECTRUM_WORDS
                         and pair_words * _PAIR_WORD_COST < s * (b * k + v))
        # The least point of a covered t-subset has t-1 later points in
        # one of its blocks: it is among the first k-t+1 of that block.
        starts = np.flatnonzero(
            np.bincount(design._members[:, : k - t + 1].ravel(), minlength=v)
        )
        later = zip((v - 1 - starts).tolist(), replication[starts].tolist())
    else:
        points = symmetry[0]
        later = ((v - 1, r) for r in replication[points.reps].tolist() if r)
    if not all_pairs:
        work, exact = _spectrum_words(later, k, t)
        if work > MAX_SPECTRUM_WORDS:
            raise DesignError(
                f"the t={t} spectrum of a design with v={v} and b={b} would "
                f"count {'' if exact else 'more than '}"
                f"{work if exact else MAX_SPECTRUM_WORDS} words, above the "
                f"limit of {MAX_SPECTRUM_WORDS}"
            )
    # Counts of the covered t-subsets by coverage; the uncovered ones are
    # what is left of C(v, t) (a Python int, which may exceed 64 bits).
    # Bin 0 collects pairs of uncovered points and is never read.
    hist = np.zeros(b + 1, dtype=np.int64)
    if t == 1:
        hist += np.bincount(replication, minlength=b + 1)
    elif all_pairs:
        _add_meets(hist, _columns(design._members, v, slice(0, 0)))
    elif symmetry is None:
        for p in starts.tolist():
            _add_through(hist, design._members, v, p, slice(0, p + 1), t)
    else:
        for x, size in zip(points.reps.tolist(), points.sizes.tolist()):
            if not replication[x]:
                continue  # no block holds x, so no t-subset through x
            through = np.zeros_like(hist)
            _add_through(through, design._members, v, x, slice(x, x + 1), t)
            hist += size * through
        # Each covered t-subset is counted once through each of its points.
        if (hist[1:] % t).any():
            raise DesignError(
                f"the orbit counts of the t={t} spectrum are not divisible by t"
            )
        hist //= t
    spectrum = {int(c): int(hist[c]) for c in np.flatnonzero(hist[1:]) + 1}
    uncovered = math.comb(v, t) - sum(spectrum.values())
    return {0: uncovered, **spectrum} if uncovered else spectrum


def _spectrum_words(later, k: int, t: int) -> tuple[int, bool]:
    """(words, exact): the sum over the (u, r) pairs of `later` of
    C(min(u, r(k-1)), t-1) * ceil(r/64), stopped once it passes
    MAX_SPECTRUM_WORDS.  exact is False when the sum stopped before the
    last pair or a binomial was cut at the bound; words is then only
    known to be above the bound."""
    work = 0
    later = iter(later)
    for u, r in later:
        words = (r + 63) // 64
        cap = MAX_SPECTRUM_WORDS // words
        count = _capped_comb(min(u, r * (k - 1)), t - 1, cap)
        work += count * words
        if work > MAX_SPECTRUM_WORDS:
            return work, count <= cap and next(later, None) is None
    return work, True


def _capped_comb(n: int, r: int, cap: int) -> int:
    """C(n, r) when it is at most cap, else cap + 1.

    The product C(n-r'+i, i) for i = 1..r' = min(r, n-r) grows with i and
    stops once it passes cap, so it takes at most about log2(cap) steps
    (C(2i, i) >= 2^i) and never builds a number much above cap.
    """
    if not 0 <= r <= n:
        return 0
    r = min(r, n - r)
    count = 1
    for i in range(1, r + 1):
        count = count * (n - r + i) // i
        if count > cap:
            return cap + 1
    return count


def _add_through(hist, members, v, p, dropped: slice, t) -> None:
    """Count into hist (from coverage 1) the t >= 2 subsets made of p and
    t-1 points outside `dropped` (which holds p), on the blocks through p."""
    k = members.shape[1]
    blocks = members[np.flatnonzero(members.ravel() == p) // k]
    if t == 2:
        # The coverage of {p, q} is the number of these blocks holding q.
        pairs = np.bincount(blocks.ravel(), minlength=v)
        pairs[dropped] = 0
        hist += np.bincount(pairs, minlength=hist.size)
    else:
        _add_coverages(hist, _columns(blocks, v, dropped), t - 1)


def _columns(blocks: np.ndarray, v: int, dropped: slice) -> np.ndarray:
    """The columns over `blocks` (rows of points) of the points outside
    `dropped` that lie in one of them, in uint64 words with zero padding
    bits.

    The booleans are packed in slices of blocks worth about _CHUNK_WORDS
    words (4 MB of booleans), or 64 blocks when the points alone fill more.
    """
    present = np.zeros(v, dtype=bool)
    present[blocks] = True
    present[dropped] = False
    row = np.cumsum(present) - 1
    count = int(row[-1]) + 1
    row[dropped] = count  # dropped points go to a row that is dropped
    width = 64 * ((len(blocks) + 63) // 64)
    columns = np.empty((count, width // 64), dtype=np.uint64)
    step = min(width, 64 * max(1, _CHUNK_WORDS // max(1, count)))
    for lo in range(0, width, step):
        hi = min(lo + step, width)
        part = blocks[lo:hi]
        bits = np.zeros((count + 1, hi - lo), dtype=bool)
        bits[row[part], np.arange(len(part))[:, None]] = True
        columns[:, lo // 64 : hi // 64] = np.packbits(
            bits[:count], axis=1, bitorder="little"
        ).view("<u8")
    return columns


def _add_coverages(hist, columns, t) -> None:
    """Count into hist the coverage of every t >= 2 of the columns (the
    count at coverage 0 is incomplete).

    Depth first over the least column q of a subset, with an explicit
    stack of (columns, t, next q) so that t may exceed the recursion
    limit; one level holds one array of later columns, as a recursion
    would.  Exactly t columns are one subset, counted by one AND.
    """
    stack = [(columns, t, 0)]
    while stack:
        columns, t, q = stack.pop()
        if t == 2:
            _add_meets(hist, columns)
        elif len(columns) == t:
            hist[_popcounts(np.bitwise_and.reduce(columns))] += 1
        elif q <= len(columns) - t:
            stack.append((columns, t, q + 1))
            # The later columns on the blocks through q; only the points
            # that share one of those blocks can complete q to a covered
            # subset.
            later = columns[q + 1 :] & columns[q]
            stack.append((later[later.any(axis=1)], t - 1, 0))


def _add_meets(hist, rows) -> None:
    """Count into hist the popcount of rows[i] & rows[j] over all i < j.

    A slice of rows meets every later row in one call, about _CHUNK_WORDS
    words, and the pairs inside the slice in another.
    """
    n, nwords = rows.shape
    step = max(1, min(n, _CHUNK_WORDS // max(1, n * nwords)))
    inner, outer = np.triu_indices(step, 1)
    for lo in range(0, n, step):
        chunk = rows[lo : lo + step]
        if len(chunk) < step:  # the last slice may be short
            inner, outer = np.triu_indices(len(chunk), 1)
        for meet in (chunk[inner] & chunk[outer], chunk[:, None] & rows[lo + step :]):
            hist += np.bincount(_popcounts(meet).ravel(), minlength=hist.size)


def lambda_j(params: DesignParams, j: int) -> Fraction:
    """Coverage of a j-subset derived from t-design parameters, exact.

    lambda_j = lam * C(v-j, t-j) / C(k-j, t-j).  The caller decides what a
    non-integral value means; it is never rounded here.
    """
    if not 0 <= j <= params.t:
        raise DesignError(f"need 0 <= j <= t, got j={j} t={params.t}")
    return Fraction(
        params.lam * math.comb(params.v - j, params.t - j),
        math.comb(params.k - j, params.t - j),
    )


def is_simple(design: Design) -> bool:
    """True when no two block instances are equal as point sets."""
    return len(set(design.blocks)) == len(design.blocks)


def is_trivial(design: Design) -> bool:
    """True when the design consists of all C(v, k) k-subsets, once each."""
    b = len(design.blocks)
    return b == _capped_comb(design.points.size, design.k, b) and is_simple(design)


def _popcounts(words: np.ndarray) -> np.ndarray:
    """Set bits per row of uint64 words (the last axis)."""
    counts = np.bitwise_count(words)
    if words.shape[-1] == 1:
        return counts[..., 0]  # a sum over one word costs more than the popcount
    return counts.sum(axis=-1, dtype=np.intp)


def intersection_profile(design: Design) -> IntersectionProfile:
    """Exact pair counts by intersection size over all unordered pairs of
    distinct block instances (duplicates each counted): popcounts of the
    ANDed block rows.

    When the design carries automorphisms, only one block of each block
    orbit O meets every block; a block's meets are constant on its orbit,
    so each pair is counted twice in the sum over O of |O| times those
    meets, less the b meets of a block with itself.
    """
    k = design.k
    counts = np.zeros(k + 1, dtype=np.int64)
    symmetry = design._symmetry
    if symmetry is None:
        _add_meets(counts, design._rows)
        return IntersectionProfile(tuple(int(c) for c in counts))
    rows, blocks = design._rows, symmetry[1]
    n, nwords = rows.shape
    # Slices of representatives whose meets with all rows fill about
    # _CHUNK_WORDS words; meets of the i-th go to bins i(k+1) .. i(k+1)+k.
    step = max(1, _CHUNK_WORDS // max(1, n * nwords))
    for lo in range(0, len(blocks.reps), step):
        reps = blocks.reps[lo : lo + step]
        meets = _popcounts(rows[reps, None] & rows) + np.arange(
            0, len(reps) * (k + 1), k + 1
        )[:, None]
        per_rep = np.bincount(meets.ravel(), minlength=len(reps) * (k + 1))
        counts += blocks.sizes[lo : lo + step] @ per_rep.reshape(len(reps), k + 1)
    counts[k] -= n
    if (counts % 2).any():
        raise DesignError("the orbit counts of the intersection profile are odd")
    return IntersectionProfile(tuple(int(c) // 2 for c in counts))
