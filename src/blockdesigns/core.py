"""Design types and the verifiers for their defining properties.

A design is a multiset of equal-size blocks over points 0..v-1, and the
block list carries multiset semantics: duplicates are allowed and
significant.  Its one representation is a read-only b x k array of
points, ``Design._members``, whose rows are the blocks as strictly
increasing points, so two blocks are equal as sets exactly when their
rows are equal.  The array is validated once, at construction: block
sizes, integer points, range and strict increase are checked on the
whole array, and only a failing block is formatted into the error.  Code
that already holds the blocks as an array (the file parser, the
generators and the union construction) builds the design through
``Design._from_members``, which checks that array and keeps it.
``Design.blocks``, the blocks as tuples of Python ints, is built from the
array only when it is read; no verifier, construction or writer reads it.

Every other form is cached from the array on first use.
``Design._rows`` packs the blocks into 64-bit words over the s points
that lie in some block, one row per block, the j-th of them at bit
s-1-j; it is the only packing of the blocks, bounded by MAX_ROW_WORDS.
``Design._masks`` reads each row as a Python int for the resolution and
PRP searches, point p at bit v-1-p when every point lies in some block;
``Design._incidences`` orders the point-block incidences by point, and
``Design._replication`` counts the blocks through each point.  A t-subset
coverage spectrum takes one of three paths.  A design with automorphisms
is counted once per point orbit, one closed under complement on half of
its blocks (both below), and any other takes each point p in turn and
packs the columns of the later points over the blocks through p only
(read off ``_incidences``), so its cost follows the replication rather
than the block count.  Coverages are popcounts of
ANDed columns, and triples of columns are counted by their last column,
ANDed with the meets of all pairs before it.  The pairwise intersection
histogram is popcounts of ANDed block rows, and a design is simple when
no two of its sorted rows are equal.  Derived coverage numbers use
``fractions.Fraction``.  Binomials that are only compared with a bound
are computed no further than the bound (``_capped_comb``).

A design on v = 2k points may be closed under complement: its blocks are
the n = b/2 blocks through point 0 and their complements
(``Design._halves``, checked exactly on the packed rows).  The
abstract's 3-designs built from trivial(w, w/2) or AG(m, 2) indexing are.
Such a design is counted on that half alone.  A t-subset lies in B or in
B's complement exactly when the columns of its points agree at B, so at
t = 2 and t = 3 the spectrum needs only the popcounts of the XORed
columns of all pairs over the n blocks; and each pair of the n, meeting
in x points, stands for four pairs of the design, two meeting in x and
two in k - x, so the profile meets only the n rows.

A design may carry point permutations that map its blocks onto themselves
(``Design.automorphisms``; the generators and the union construction
supply them, design files never do).  They are checked exactly on first
use (``Design._permutations``), and a false one raises DesignError.  Where a
generator knows the block permutation an automorphism induces
(``cyclic_develop``, and the union construction for each master
automorphism it keeps), it supplies that too, and the check verifies it
in one pass: the image of every block must be the block it names.  The
block permutations of the other automorphisms (those given to the public
constructor or to ``dataclasses.replace``, the AG translations) are
searched for by ordering the images of all blocks.  The spectrum then
counts only the t-subsets through one point of each point orbit, and the
profile only the meets of one block of each block orbit, weighted by the
orbit sizes (Kramer and Mesner, "t-designs on hypergraphs", Discrete
Math. 15, 1976); both divide out exactly.
"""

from __future__ import annotations

import array
import itertools
import math
import numbers
from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction

import numpy as np

__all__ = [
    "Block",
    "Design",
    "DesignError",
    "DesignParams",
    "IntersectionProfile",
    "MAX_COMB_BITS",
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
# words (0.1 s) instead of 2.85 G.  A design closed under complement, with
# no automorphisms, is counted on the columns of all v points over its
# n = b/2 blocks through point 0 when C(v, 2) * ceil(n/64) words of XORed
# pairs, plus at t = 3 the C(v, 3) sums of three pair counts, are within
# this bound (_half_words): 3-(1024,512,255) from a file, with no
# automorphisms, needs 8.4 M + 178 M (`verify --t 3` of the file takes
# 1.3 s, interpreter start included).  Past it such a design is counted
# point by point.  The intersection profile is bounded by the same number,
# in words of ANDed rows: C(m, 2) * ceil(s/64), or with automorphisms the
# block orbits times m * ceil(s/64), m = b or b/2 for a closed design; the
# written AG(2,16) x trivial(16,8) design (218,790 blocks) would need
# 2.4e10 and is refused.
MAX_SPECTRUM_WORDS = 1 << 28

# Most bits of C(v, t), the number of t-subsets a spectrum accounts for,
# checked with _capped_comb before the exact binomial is computed; C(v, t)
# < 2^v, so only v above the bound needs the check.  On a 2-core Xeon the
# check takes at most about 0.3 s (C(80000, 40000)), and a binomial within
# the bound at most about 0.1 s (C(65536, 32768), 65,528 bits: 78 ms),
# against 10-15 s for C(2^20, 2^19), which has 1,048,566 bits.
MAX_COMB_BITS = 1 << 16

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

# Fewest meets of one orbit size that intersection_profile counts as byte
# pairs, in 65,536 bins: with fewer, zeroing and summing the bins costs
# more than the increments the pairs save.
_PAIR_MEETS = 1 << 16

# The pairs i < j < _PAIR_TABLE that _pairs keeps in one table: every
# slice of rows _add_meets meets has at most sqrt(_CHUNK_WORDS) rows.
_PAIR_TABLE = math.isqrt(_CHUNK_WORDS)

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
    each orbit, ascending, the orbit sizes, and the least element of the
    orbit of each of 0..n-1."""

    reps: np.ndarray
    sizes: np.ndarray
    least: np.ndarray


@dataclass(frozen=True, init=False, repr=False, eq=False)
class Design:
    """A block multiset over a point set; every block has size k.

    The blocks live in one array, `_members`: a read-only b x k array of
    points, each row strictly increasing, in the smallest unsigned integer
    type that holds every point.  It is the array that validation builds
    from the blocks given, or the one `_from_members` was given.  Every
    verifier reads it or the forms cached from it; `blocks`, the rows as
    tuples of Python ints, is built only when it is read.

    `automorphisms` holds point permutations, each as the tuple of images
    of 0..v-1, that map the blocks onto themselves.  They are a claim that
    `_permutations` checks on first use; the verifiers then count once per
    orbit (`_symmetry`).  A design built by `_from_members` may also hold
    the block permutation each induces, another claim `_permutations`
    checks; the constructor and `dataclasses.replace` keep none.  None of
    these take part in equality or hashing: the points, k and the block
    rows in order decide both.
    """

    points: PointSet
    blocks: tuple[Block, ...]  # the cached property below
    k: int
    automorphisms: tuple[tuple[int, ...], ...] = ()

    def __init__(self, points: PointSet, blocks, k: int, automorphisms=()) -> None:
        self.__dict__.update(points=points, k=k, automorphisms=automorphisms)
        self.__post_init__(blocks)

    def __post_init__(self, blocks=None) -> None:
        """Check k and the blocks, given as sequences of points, or else
        the array `_from_members` set, and keep them as `_members`."""
        v = self.points.size
        if not 2 <= self.k < v:
            raise DesignError(f"block size must satisfy 2 <= k < v (k={self.k}, v={v})")
        if blocks is None:
            members = _checked_members(self._members, v)
        else:
            members = _block_array(blocks, self.k, v)
            members.flags.writeable = False
        self.__dict__["_members"] = members

    # The block permutation of each automorphism, as its generator knows
    # it: entry i maps block j to the block automorphism i maps it onto,
    # or is None.  Only _from_members sets them; they are checked with the
    # automorphisms and never searched for.
    _block_perms = ()

    @classmethod
    def _from_members(cls, points: PointSet, members: np.ndarray,
                      automorphisms=(), block_perms=()) -> "Design":
        """The design whose blocks are the rows of `members`, a b x k
        integer array (or object array of ints).  The array is checked as
        _block_array checks tuples, with the same errors, and kept as
        `_members` in the smallest unsigned type that holds every point,
        so it is never built again.  `block_perms` may give the block
        permutation of each automorphism (see _permutations)."""
        design = cls.__new__(cls)
        design.__dict__.update(points=points, k=members.shape[1],
                               automorphisms=automorphisms, _members=members,
                               _block_perms=block_perms)
        design.__post_init__()
        return design

    @cached_property
    def blocks(self) -> tuple[Block, ...]:
        """The blocks as strictly increasing tuples of Python ints, built
        from `_members` on first read.  Nothing on the way from a design
        to a verdict or a file reads them."""
        return _tuples(self._members)

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.points == other.points and self.k == other.k
                and np.array_equal(self._members, other._members))

    def __hash__(self) -> int:
        return hash((self.points, self.k, self._members.tobytes()))

    def __repr__(self) -> str:
        return (f"{type(self).__qualname__}(points={self.points!r}, "
                f"blocks={self.blocks!r}, k={self.k!r})")

    @cached_property
    def _replication(self) -> np.ndarray:
        """The number of blocks through each point, counted on first use,
        read-only.  The members are counted in slices of at least
        _CHUNK_WORDS points and v (bincount copies each slice to intp)."""
        members, v = self._members, self.points.size
        step = max(1, max(_CHUNK_WORDS, v) // self.k)
        replication = np.bincount(members[:step].ravel(), minlength=v)
        for lo in range(step, len(members), step):
            replication += np.bincount(members[lo : lo + step].ravel(), minlength=v)
        replication.flags.writeable = False
        return replication

    @cached_property
    def _rows(self) -> np.ndarray:
        """Block i as the bits of row i, in ceil(s/64) read-only uint64
        words with zero padding bits, packed on first use.  The j-th of
        the s points that lie in some block is bit s-1-j, the resolution
        search's descending order, so points in no block cost nothing.

        Raises DesignError before packing when the rows would hold more
        than MAX_ROW_WORDS words.
        """
        members = self._members
        support = np.flatnonzero(self._replication)
        s = len(support)
        nwords = (s + 63) // 64
        if len(members) * nwords > MAX_ROW_WORDS:
            raise DesignError(
                f"the rows of {len(members)} blocks over {s} points "
                f"would hold {len(members) * nwords} words, above the limit of "
                f"{MAX_ROW_WORDS}"
            )
        if s < self.points.size:
            members = np.searchsorted(support, members)
        rows = _packed_rows(s - 1 - members, nwords)
        rows.flags.writeable = False
        return rows

    @cached_property
    def _masks(self) -> tuple[int, ...]:
        """Block i as a Python int, the bits of row i of `_rows`: the form
        the resolution and PRP searches combine.  When every point lies
        in some block, point p is bit v-1-p."""
        return _ints(self._rows)

    @cached_property
    def _halves(self) -> np.ndarray | None:
        """The indices of the n = b/2 blocks through point 0, ascending and
        read-only, when the design is closed under complement: v = 2k,
        every point lies in n blocks (so the rows span all v points), and
        the rows of the blocks that miss point 0, XORed with the row of all
        points, are the rows through point 0 as a multiset (one _row_order
        on each half).  Otherwise None, as also when the rows are refused
        (MAX_ROW_WORDS).

        The blocks are then these n and their complements, so a t-subset
        lies in B or in B's complement exactly when B holds all of it or
        none of it, and a pair of blocks of the design meets as a pair of
        these blocks does, or in k less as many points.
        """
        members = self._members
        v, b = self.points.size, len(members)
        if v != 2 * self.k or not b or b % 2 or (self._replication != b // 2).any():
            return None
        try:
            rows = self._rows
        except DesignError:
            return None
        through = members[:, 0] == 0
        inside = rows[through]
        outside = rows[~through] ^ _packed_rows(np.arange(v)[None], rows.shape[1])
        if not np.array_equal(inside[_row_order(inside)], outside[_row_order(outside)]):
            return None
        halves = np.flatnonzero(through)
        halves.flags.writeable = False
        return halves

    @cached_property
    def _incidences(self) -> tuple[np.ndarray, np.ndarray]:
        """(blocks, starts): the block of each point-block incidence,
        ordered by point and then by block, and where the run of each
        point starts; the blocks through p are blocks[starts[p] :
        starts[p + 1]], in increasing order.  Built on first use, by one
        stable argsort of the members, read-only."""
        members = self._members
        blocks = np.argsort(members.ravel(), kind="stable") // self.k
        starts = np.zeros(self.points.size + 1, dtype=np.intp)
        np.cumsum(self._replication, out=starts[1:])
        for array in (blocks, starts):
            array.flags.writeable = False
        return blocks, starts

    @cached_property
    def _permutations(self) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
        """(points, blocks): each automorphism as an array of point images,
        and its block permutation, entry j the block it maps block j onto.

        A block permutation supplied with an automorphism is checked in
        one pass: it must permute 0..b-1, and the image of each block must
        be the block it names.  For the other automorphisms the block
        permutation is searched for, by ordering the images of all blocks
        as the blocks are ordered.  Raises DesignError when a generator is
        not a permutation of 0..v-1, or does not map the block multiset
        onto itself as a supplied block permutation says or at all.
        """
        v = self.points.size
        members = self._members
        supplied = self._block_perms or (None,) * len(self.automorphisms)
        point_perms, block_perms = [], []
        for i, (gen, blocks) in enumerate(
                zip(self.automorphisms, supplied, strict=True)):
            perm = _as_permutation(gen, v)
            if perm is None:
                raise DesignError(
                    f"automorphism {i} is not a permutation of 0..{v - 1}"
                )
            if blocks is not None:
                blocks = _checked_block_permutation(members, perm, blocks)
            else:
                blocks = _block_permutation(self, perm)
            if blocks is None:
                raise DesignError(
                    f"automorphism {i} does not map the blocks onto themselves"
                )
            point_perms.append(perm)
            block_perms.append(blocks)
        return tuple(point_perms), tuple(block_perms)

    @cached_property
    def _sorted(self) -> tuple[np.ndarray, np.ndarray]:
        """(order, listed): the _row_order of the members and the members
        in that order, sorted on first use, read-only.  Every match of
        block images against the blocks reads them."""
        order = _row_order(self._members)
        listed = self._members[order]
        for array in (order, listed):
            array.flags.writeable = False
        return order, listed

    @cached_property
    def _symmetry(self) -> tuple[_Orbits, _Orbits] | None:
        """The point and block orbits of the group the automorphisms
        generate (checked by _permutations), or None when there are none."""
        if not self.automorphisms:
            return None
        points, blocks = self._permutations
        return _orbits(points, self.points.size), _orbits(blocks, len(self._members))


def _packed_rows(members: np.ndarray, nwords: int) -> np.ndarray:
    """Row i with bit p set for each point p of members[i], in nwords
    uint64 words with zero padding bits.  The booleans are packed in
    slices of about _CHUNK_WORDS words."""
    rows = np.empty((len(members), nwords), dtype=np.uint64)
    step = max(1, _CHUNK_WORDS // max(1, nwords))
    for lo in range(0, len(members), step):
        part = members[lo : lo + step]
        bits = np.zeros((len(part), 64 * nwords), dtype=bool)
        bits[np.arange(len(part))[:, None], part] = True
        rows[lo : lo + step] = np.packbits(
            bits, axis=1, bitorder="little"
        ).view("<u8")
    return rows


def _ints(rows: np.ndarray) -> tuple[int, ...]:
    """Each row of uint64 words as the Python int whose bit 64i + j is bit
    j of word i."""
    width = rows.shape[1] * 8
    data = rows.astype("<u8", copy=False).tobytes()
    return tuple(
        int.from_bytes(data[lo : lo + width], "little")
        for lo in range(0, len(data), max(width, 1))  # no words: no data
    )


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
    increase; a block that is a row of an array is named as a tuple."""
    ends = (points[:, 0] < 0) | (points[:, -1] >= v)
    bad = ends | (points[:, 1:] <= points[:, :-1]).any(axis=1)
    if bad.any():
        i = int(bad.argmax())
        block = blocks[i]
        if isinstance(block, np.ndarray):
            block = tuple(block.tolist())
        if ends[i]:
            raise DesignError(f"block {block} has points outside 0..{v - 1}")
        raise DesignError(f"block {block} is not strictly increasing")


def _checked_members(members: np.ndarray, v: int) -> np.ndarray:
    """members, an integer array of blocks, checked as _block_array checks
    tuples, as a read-only array of the smallest unsigned type that holds
    v-1."""
    _check_points(members, v, members)
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
    if v and (perm.min() < 0 or perm.max() >= v):
        return None
    hit = np.zeros(v, dtype=bool)
    hit[perm] = True
    return perm if hit.all() else None


def _row_order(rows: np.ndarray) -> np.ndarray:
    """The indices of the rows of a 2-D integer array in lexicographic
    order, equal rows in index order.  Two arrays hold the same rows as a
    multiset exactly when they are equal in this order."""
    return np.lexsort(rows.T[::-1])


def _block_permutation(design: Design, perm) -> np.ndarray | None:
    """The block permutation i -> j with perm(block i) = block j, equal
    blocks matched in index order, or None when perm does not map the
    blocks of design onto themselves as a multiset."""
    order, listed = design._sorted
    image = _image(design._members, perm)
    image_order = _row_order(image)
    if not np.array_equal(image[image_order], listed):
        return None
    matching = np.empty(len(image), dtype=np.intp)
    matching[image_order] = order
    return matching


def _image(members, perm) -> np.ndarray:
    """The blocks (rows of members) mapped by perm, each row sorted."""
    image = np.take(perm.astype(members.dtype), members)
    image.sort(axis=1)
    return image


def _checked_block_permutation(members, perm, blocks) -> np.ndarray | None:
    """blocks, as an index array, when it is a permutation of the rows of
    members and perm maps each block i onto block blocks[i]; else None."""
    blocks = _as_permutation(blocks, len(members))
    if blocks is None:
        return None
    return blocks if np.array_equal(_image(members, perm), members[blocks]) else None


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
    return _Orbits(reps, np.bincount(label)[reps], label)


def is_automorphism(design: Design, perm) -> bool:
    """True when perm, the images of 0..v-1, is a permutation that maps
    the blocks of design onto themselves as a multiset."""
    perm = _as_permutation(perm, design.points.size)
    if perm is None:
        return False
    return _block_permutation(design, perm) is not None


def _row_ranks(rows) -> np.ndarray:
    """The rank of each row of a 2-D integer array in the lexicographic
    order of the rows, equal rows sharing one rank: comparing ranks
    compares the rows."""
    order = _row_order(rows)
    listed = rows[order]
    rank = np.zeros(len(rows), dtype=np.intp)
    rank[order[1:]] = np.cumsum((listed[1:] != listed[:-1]).any(axis=1))
    return rank


def _packed_words(rows: np.ndarray, bits: int) -> np.ndarray:
    """The rows of a 2-D int64 array of values below 2**bits, packed into
    as many int64 words as a row needs, 63 // bits values to a word, the
    first value most significant and the last word padded with zeros.
    Comparing two word rows compares the rows, so _row_ranks of the words
    is _row_ranks of the rows."""
    scales = _word_scales(bits)
    per = len(scales)
    n, width = rows.shape
    if width % per:
        rows = np.pad(rows, ((0, 0), (0, per - width % per)))
    return rows.reshape(n, -1, per) @ scales


@cache
def _word_scales(bits: int) -> np.ndarray:
    """2**(bits * i) for i from 63 // bits - 1 down to 0, read-only: the
    place of each value in a word of _packed_words."""
    scales = np.left_shift(1, bits * np.arange(63 // bits - 1, -1, -1), dtype=np.int64)
    scales.flags.writeable = False
    return scales


def _find_automorphism(design: Design, accept, spend) -> tuple[np.ndarray, np.ndarray] | None:
    """A point automorphism of design that moves some point and whose
    block permutation `accept` takes, as (point images, block
    permutation), or None when the search below finds none.

    Individualisation and refinement (B. D. McKay, "Practical graph
    isomorphism", Congr. Numer. 30, 1981) on the point-block incidences.
    A round of refinement recolours every block by its colour and the
    sorted colours of its points, then every point by its colour and the
    sorted colours of its blocks; a colour is the rank of such a
    signature, so it does not depend on the labels, and an automorphism
    maps each point and block to one of the same colour.  Each round
    writes the signatures as int64 rows into two buffers made once per
    call, packs each row into words of 63 // bits colours, bits the bit
    length of max(v, b), above every colour (_packed_words), and ranks the
    words, which gives the ranks _row_ranks gives the rows.  Rounds repeat
    until one splits no colour class.  The first path gives the least
    point of the smallest point class of more than one point a colour of
    its own and refines, until every point has its own colour.  Then,
    from the deepest level up, every other point of the class chosen at a
    level is tried in its place, and below it every point of the class
    the first path chose at each later level.  A branch is cut as soon as
    a round's numbers of colours, or a level's class sizes, differ from
    the first path's.  At a leaf the map from the points of the first
    leaf to the points of the same colour is checked exactly
    (_block_permutation), and the first map that passes and that
    `accept` takes is returned.

    spend() is called before every round, so a caller can charge the work
    and stop it by raising.  A design whose points lie in different
    numbers of blocks is not searched.
    """
    members = design._members
    v, b = design.points.size, len(members)
    replication = design._replication
    if b == 0 or (replication != replication[0]).any():
        return None
    through = design._incidences[0].reshape(v, -1)
    block_points = members.astype(np.intp)  # faster to index with than uint8
    # Every colour is at most max(v, b): a rank below v or b, or v for an
    # individualised point.  Each round writes its signature rows into
    # these buffers, padded to whole words with columns that stay zero.
    bits = max(v, b).bit_length()
    per = 63 // bits

    def buffer(n, width):
        return np.zeros((n, -(-width // per) * per), dtype=np.int64)

    block_rows, point_rows = buffer(b, 1 + design.k), buffer(v, 1 + through.shape[1])

    def recoloured(rows, colours, neighbours, their_colours):
        """The ranks of the rows (colour, sorted colours of the
        neighbours), as _row_ranks of the rows packed into words."""
        rows[:, 0] = colours
        signature = rows[:, 1 : neighbours.shape[1] + 1]
        signature[...] = their_colours[neighbours]
        signature.sort(axis=1)
        return _row_ranks(_packed_words(rows, bits))

    def refine(points, blocks, expected=None):
        """The equitable colouring under (points, blocks) and the numbers
        of colours after each round; None as soon as those differ from
        `expected`."""
        counts = []
        before = (int(points.max()) + 1, int(blocks.max()) + 1)
        while True:
            spend()
            blocks = recoloured(block_rows, blocks, block_points, points)
            points = recoloured(point_rows, points, through, blocks)
            after = (int(points.max()) + 1, int(blocks.max()) + 1)
            counts.append(after)
            if expected is not None and expected[len(counts) - 1 : len(counts)] != [after]:
                return None
            if after == before:
                return points, blocks, counts
            before = after

    def individualised(points, blocks, p, expected=None):
        points = points.copy()
        points[p] = v  # above every colour
        return refine(points, blocks, expected)

    def sizes(points, blocks) -> bytes:
        return np.bincount(points).tobytes() + np.bincount(blocks).tobytes()

    # The first path: per level, the colouring, the class chosen and its
    # point, and the rounds and class sizes of the refinement below it.
    points, blocks, _ = refine(np.zeros(v, dtype=np.intp), np.zeros(b, dtype=np.intp))
    path = []
    while True:
        classes = np.bincount(points)
        if classes.max() == 1:
            break
        colour = int(np.argmin(np.where(classes > 1, classes, v + 1)))
        chosen = int(np.argmax(points == colour))
        below = individualised(points, blocks, chosen)
        path.append((points, blocks, colour, chosen, below[2], sizes(*below[:2])))
        points, blocks = below[:2]
    leaf = np.argsort(points)
    for depth in range(len(path) - 1, -1, -1):
        points, blocks, colour, chosen, _, _ = path[depth]
        tries = [(depth, points, blocks, p)
                 for p in np.flatnonzero(points == colour)[::-1].tolist() if p != chosen]
        while tries:
            level, points, blocks, p = tries.pop()
            below = individualised(points, blocks, p, path[level][4])
            if below is None or sizes(*below[:2]) != path[level][5]:
                continue
            points, blocks = below[:2]
            if level + 1 < len(path):
                colour = path[level + 1][2]
                tries.extend((level + 1, points, blocks, q)
                             for q in np.flatnonzero(points == colour)[::-1].tolist())
                continue
            perm = np.empty(v, dtype=np.intp)
            perm[leaf] = np.argsort(points)
            block_perm = _block_permutation(design, perm)
            if block_perm is not None and accept(block_perm):
                return perm, block_perm
    return None


def _check_strength(t: int, k: int) -> None:
    """Raise DesignError unless 1 <= t <= k."""
    if not 1 <= t <= k:
        raise DesignError(f"need 1 <= t <= k, got t={t} k={k}")


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
        _check_strength(self.t, self.k)
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
    counts = design._replication
    r = int(counts[0])
    deviating = np.flatnonzero(counts != r)
    if deviating.size:
        point = int(deviating[0])
        raise NonConstantReplication(point=point, count=int(counts[point]), expected=r)
    return DesignParams(
        t=1, v=design.points.size, b=len(design._members), r=r, k=design.k, lam=r
    )


def t_coverage_spectrum(design: Design, t: int) -> dict[int, int]:
    """Map coverage-count -> number of t-subsets with that coverage.

    Exhaustive over all C(v, t) t-subsets; the design is a t-design with
    coverage lam exactly when the result is {lam: C(v, t)}.  The subsets
    with least point p are counted on the blocks through p: the coverage
    of {p} plus a (t-1)-subset of later points is the popcount of the AND
    of their columns over those blocks.

    The path follows the design.  When it carries automorphisms and
    t >= 2, only the subsets through one point x of each point orbit P are
    counted, as hist_x; the coverage is constant on orbits, so hist = sum
    over P of |P| hist_x / t.  Otherwise a design closed under complement
    (Design._halves) is counted at t = 2 and t = 3 on the columns of all
    points over the b/2 blocks through point 0 (_add_halves), when those
    words are within MAX_SPECTRUM_WORDS (_half_words).  Any other design is
    counted point by point, through each point p that can be the least of
    a covered t-subset.

    Raises DesignError before packing anything, except the block rows
    that Design._halves checks when the half path's words are within the
    bound, when a bound on the words to count exceeds MAX_SPECTRUM_WORDS,
    or when C(v, t) has more than MAX_COMB_BITS bits.
    """
    k = design.k
    _check_strength(t, k)
    v, b = design.points.size, len(design._members)
    cap = (1 << MAX_COMB_BITS) - 1
    if v > MAX_COMB_BITS and _capped_comb(v, t, cap) > cap:
        raise DesignError(
            f"the t={t} spectrum of a design with v={v} accounts for C({v}, {t}) "
            f"subsets, a number of more than {MAX_COMB_BITS} bits, above the limit"
        )
    replication = design._replication
    symmetry = design._symmetry if t >= 2 else None
    # Counts of the covered t-subsets by coverage; the uncovered ones are
    # what is left of C(v, t) (a Python int, which may exceed 64 bits).
    # Bin 0 collects pairs of uncovered points and is never read.
    hist = np.zeros(b + 1, dtype=np.int64)
    # A design closed under complement is counted on half of its blocks
    # when those words are within the bound; otherwise, or when it is not
    # closed, it is counted point by point.
    if (symmetry is None and t in (2, 3)
            and _half_words(v, b // 2, t) <= MAX_SPECTRUM_WORDS
            and design._halves is not None):
        _add_halves(hist, design, t)
        return _spectrum(hist, v, t)
    if symmetry is None:
        # The least point of a covered t-subset has t-1 later points in
        # one of its blocks: it is among the first k-t+1 of that block.
        starts = np.flatnonzero(
            np.bincount(design._members[:, : k - t + 1].ravel(), minlength=v)
        )
        later = zip((v - 1 - starts).tolist(), replication[starts].tolist())
    else:
        points = symmetry[0]
        later = ((v - 1, r) for r in replication[points.reps].tolist() if r)
    work, exact = _spectrum_words(later, k, t)
    if work > MAX_SPECTRUM_WORDS:
        raise DesignError(
            f"the t={t} spectrum of a design with v={v} and b={b} would "
            f"count {'' if exact else 'more than '}"
            f"{work if exact else MAX_SPECTRUM_WORDS} words, above the "
            f"limit of {MAX_SPECTRUM_WORDS}"
        )
    members = design._members
    if t == 1:
        hist += np.bincount(replication, minlength=b + 1)
    elif symmetry is None:
        incident, offsets = design._incidences
        for p in starts.tolist():
            blocks = members[incident[offsets[p] : offsets[p + 1]]]
            _add_through(hist, blocks, v, slice(0, p + 1), t)
    else:
        for x, size in zip(points.reps.tolist(), points.sizes.tolist()):
            if not replication[x]:
                continue  # no block holds x, so no t-subset through x
            # A few orbits: one scan each costs less than the argsort
            # behind _incidences.
            blocks = members[np.flatnonzero(members.ravel() == x) // k]
            through = np.zeros_like(hist)
            _add_through(through, blocks, v, slice(x, x + 1), t)
            hist += size * through
        # Each covered t-subset is counted once through each of its points.
        if (hist[1:] % t).any():
            raise DesignError(
                f"the orbit counts of the t={t} spectrum are not divisible by t"
            )
        hist //= t
    return _spectrum(hist, v, t)


def _spectrum(hist, v: int, t: int) -> dict[int, int]:
    """The spectrum whose covered t-subsets hist counts from bin 1 on."""
    spectrum = {int(c): int(hist[c]) for c in np.flatnonzero(hist[1:]) + 1}
    uncovered = math.comb(v, t) - sum(spectrum.values())
    return {0: uncovered, **spectrum} if uncovered else spectrum


def _half_words(v: int, n: int, t: int) -> int:
    """The work of _add_halves at t = 2 or 3: the C(v, 2) XORs of two
    columns of ceil(n/64) words, and at t = 3 the C(v, 3) triple sums."""
    return _pair_count(v) * ((n + 63) // 64) + (math.comb(v, 3) if t == 3 else 0)


def _add_halves(hist, design: Design, t: int) -> None:
    """Count into hist every t = 2 or 3 subset of a design closed under
    complement, on the columns of all v points over the n blocks through
    point 0 (Design._halves).

    A t-subset lies in B or in B's complement exactly when B holds all of
    it or none of it, that is when the columns of its points agree at B.
    So a pair {p, q} is covered n - d(p, q) times, d the popcount of the
    XOR of two columns, and a triple n - (d(x, y) + d(x, z) + d(y, z)) / 2
    times: a block at which the three columns do not all agree adds 2 to
    the sum of the three d, and one at which they agree adds 0.
    """
    halves = design._halves
    n = len(halves)
    columns = _columns(design._members[halves], design.points.size, slice(0, 0),
                       every=True)
    counts = np.zeros(n + 1, dtype=np.int64)
    if t == 2:
        _add_meets(counts, columns, np.bitwise_xor)
    else:
        _add_split_triples(counts, columns)
    hist[: n + 1] += counts[::-1]


def _add_split_triples(counts, columns) -> None:
    """Count into counts, at (d(x, y) + d(x, z) + d(y, z)) / 2, every
    triple x < y < z of the columns, d the popcount of the XOR of two
    columns; counts has a bin for every value that can occur.

    Triples are taken by their last column z, as _add_triples takes them.
    The d of z with every earlier column is found in slices of about
    _CHUNK_WORDS words and kept in the order of _pairs, so the pairs before
    z are a prefix of the d found before it; each slice of _CHUNK_WORDS of
    those pairs adds the d of its two columns with z, read off that order,
    and the sums are binned.
    """
    v, nwords = columns.shape
    inner, outer = _pairs(v)
    apart = np.empty(_pair_count(v), dtype=np.intp)
    sums = np.zeros(2 * len(counts) - 1, dtype=np.int64)
    step = max(1, _CHUNK_WORDS // max(1, nwords))
    for z in range(1, v):
        before = _pair_count(z)
        to_z = apart[before : before + z]
        for lo in range(0, z, step):
            hi = min(lo + step, z)
            to_z[lo:hi] = _popcounts(columns[lo:hi] ^ columns[z])
        for lo in range(0, before, _CHUNK_WORDS):
            hi = min(lo + _CHUNK_WORDS, before)
            split = apart[lo:hi] + to_z[inner[lo:hi]] + to_z[outer[lo:hi]]
            sums += np.bincount(split, minlength=sums.size)
    counts += sums[::2]


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


def _add_through(hist, blocks, v, dropped: slice, t) -> None:
    """Count into hist (from coverage 1) the t >= 2 subsets made of a
    point p and t-1 points outside `dropped` (which holds p), on `blocks`,
    the rows of the blocks through p."""
    if t == 2:
        # The coverage of {p, q} is the number of these blocks holding q.
        pairs = np.bincount(blocks.ravel(), minlength=v)
        pairs[dropped] = 0
        hist += np.bincount(pairs, minlength=hist.size)
    else:
        _add_coverages(hist, _columns(blocks, v, dropped), t - 1)


def _columns(blocks: np.ndarray, v: int, dropped: slice, every=False) -> np.ndarray:
    """The columns over `blocks` (rows of points) of the points outside
    `dropped` that lie in one of them, or of all of them when `every`, in
    uint64 words with zero padding bits.

    The booleans are packed in slices of blocks worth about _CHUNK_WORDS
    words (4 MB of booleans), or 64 blocks when the points alone fill more.
    """
    present = np.full(v, every)
    present[blocks] = True
    present[dropped] = False
    row = np.cumsum(present) - 1
    count = int(row[-1]) + 1
    row[dropped] = count  # dropped points go to a row that is dropped
    width = 64 * ((len(blocks) + 63) // 64)
    columns = np.empty((count, width // 64), dtype=np.uint64)
    step = 64 * max(1, min(width // 64, _CHUNK_WORDS // max(1, count)))
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
        elif t == 3 and _pair_count(len(columns)) * columns.shape[1] <= _CHUNK_WORDS:
            _add_triples(hist, columns)  # the meets of all pairs fit one chunk
        elif len(columns) == t:
            hist[_popcounts(np.bitwise_and.reduce(columns))] += 1
        elif q <= len(columns) - t:
            stack.append((columns, t, q + 1))
            # The later columns on the blocks through q; only the points
            # that share one of those blocks can complete q to a covered
            # subset.
            later = columns[q + 1 :] & columns[q]
            stack.append((later[later.any(axis=1)], t - 1, 0))


def _add_triples(hist, columns) -> None:
    """Count into hist the popcount of the AND of every 3 of the columns,
    by their last column: the meets of all pairs are ANDed once, and each
    column meets the pairs before it (a prefix of those meets, as _pairs
    orders them) in one call."""
    inner, outer = _pairs(len(columns))
    meets = columns[inner] & columns[outer]
    for last in range(2, len(columns)):
        covered = meets[: _pair_count(last)] & columns[last]
        hist += np.bincount(_popcounts(covered), minlength=hist.size)


def _pair_count(n: int) -> int:
    return n * (n - 1) // 2


def _add_meets(hist, rows, op=np.bitwise_and) -> None:
    """Count into hist the popcount of op(rows[i], rows[j]) over all i < j,
    the AND of the two rows unless another op is given.

    A slice of rows meets every later row in one call, about _CHUNK_WORDS
    words, and the pairs inside the slice in another.
    """
    n, nwords = rows.shape
    step = max(1, min(n, _CHUNK_WORDS // max(1, n * nwords)))
    for lo in range(0, n, step):
        chunk = rows[lo : lo + step]
        inner, outer = _pairs(len(chunk))
        for meet in (op(chunk[inner], chunk[outer]), op(chunk[:, None], rows[lo + step :])):
            hist += np.bincount(_popcounts(meet).ravel(), minlength=hist.size)


def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(inner, outer): every pair inner < outer < n, ordered by outer.

    The pairs below n are then the first C(n, 2) of the pairs below any
    larger bound, so for n <= _PAIR_TABLE (every slice _add_meets takes)
    they are read off one table instead of being built on each call.
    """
    if n > _PAIR_TABLE:
        return _pair_indices(n)
    count = _pair_count(n)
    inner, outer = _pair_table()
    return inner[:count], outer[:count]


@cache
def _pair_table() -> tuple[np.ndarray, np.ndarray]:
    """The pairs below _PAIR_TABLE, built on first use, read-only."""
    table = _pair_indices(_PAIR_TABLE)
    for indices in table:
        indices.flags.writeable = False
    return table


def _pair_indices(n: int) -> tuple[np.ndarray, np.ndarray]:
    outer, inner = np.tril_indices(n, -1)  # row-major: ordered by outer
    return inner, outer


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
    """True when no two block instances are equal as point sets: no two
    block rows are equal once sorted.  The packed rows are compared, or
    the members (rows of increasing points) when the packed rows would
    hold more than MAX_ROW_WORDS words."""
    try:
        rows = design._rows
    except DesignError:
        rows = design._members
    if len(rows) < 2:
        return True
    ordered = rows[_row_order(rows)]
    return not (ordered[1:] == ordered[:-1]).all(axis=1).any()


def is_trivial(design: Design) -> bool:
    """True when the design consists of all C(v, k) k-subsets, once each."""
    b = len(design._members)
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
    meets, less the b meets of a block with itself.  The representatives
    are taken by orbit size, and the meets of those of one size are
    histogrammed together (_orbit_meets).

    When the design is closed under complement (Design._halves), only the
    n = b/2 blocks through point 0 are met.  Two of them meeting in x
    points stand for four pairs: themselves and their complements meet in
    x, and each with the other's complement in k - x; and each of them
    meets its own complement in 0.  So with the histogram h of the
    unordered pairs among the n, profile[x] = 2h[x] + 2h[k-x], plus n at
    x = 0; a representative's meets with all blocks are its meets with
    the n, h', as h'[x] + h'[k-x].

    Raises DesignError before ANDing any rows when the words to AND pass
    MAX_SPECTRUM_WORDS: C(m, 2) pairs of rows of w words, or, with
    automorphisms, the representatives times m rows of w words, where m
    is b, or n for a closed design.
    """
    k = design.k
    counts = np.zeros(k + 1, dtype=np.int64)
    symmetry = design._symmetry
    rows, halves = design._rows, design._halves
    b, nwords = rows.shape
    met = rows if halves is None else rows[halves]
    if symmetry is None:
        work = _pair_count(len(met)) * nwords
    else:
        work = len(symmetry[1].reps) * len(met) * nwords
    if work > MAX_SPECTRUM_WORDS:
        raise DesignError(
            f"the intersection profile of a design with v={design.points.size} "
            f"and b={b} would count {work} words, above the limit of "
            f"{MAX_SPECTRUM_WORDS}"
        )
    if symmetry is None:
        _add_meets(counts, met)
        if halves is not None:
            counts = 2 * (counts + counts[::-1])
            counts[0] += len(met)
        return IntersectionProfile(tuple(int(c) for c in counts))
    blocks = symmetry[1]
    for size in np.unique(blocks.sizes).tolist():
        meets = _orbit_meets(rows[blocks.reps[blocks.sizes == size]], met, k)
        if halves is not None:
            meets = meets + meets[::-1]
        counts += size * meets
    counts[k] -= b
    if (counts % 2).any():
        raise DesignError("the orbit counts of the intersection profile are odd")
    return IntersectionProfile(tuple(int(c) // 2 for c in counts))


def _orbit_meets(reps, rows, k: int) -> np.ndarray:
    """The histogram (k+1 bins) of the popcounts of reps[i] & rows[j] over
    every row i of reps and every row j of rows.

    A slice of reps meets all rows in one call, about _CHUNK_WORDS words
    of ANDed rows, and its meets are popcounts in the smallest unsigned
    type that holds k.  When k < 256 and reps have at least _PAIR_MEETS
    meets, the bytes are counted two at a time: read as uint16, they are
    added in place into 65,536 bins (np.add.at reads them as they are,
    where bincount would copy them to intp), half the increments of one
    count per byte.  Pair (a, b) is one count in the row of one byte and
    the column of the other, so the sums of the rows and of the columns
    together count every byte; the last byte of an odd slice is counted alone.  Other
    slices are bincounted.
    """
    n, nwords = rows.shape
    dtype = np.min_scalar_type(k)
    paired = dtype.itemsize == 1 and len(reps) * n >= _PAIR_MEETS
    counts = np.zeros(256 if paired else k + 1, dtype=np.int64)
    pairs = np.zeros(1 << 16 if paired else 0, dtype=np.int64)
    step = max(1, _CHUNK_WORDS // max(1, n * nwords))
    for lo in range(0, len(reps), step):
        counted = np.bitwise_count(reps[lo : lo + step, None] & rows)
        if nwords == 1:  # a sum over one word costs more than the popcount
            meets = counted.ravel()
        else:
            meets = counted.sum(axis=-1, dtype=dtype).ravel()
        if not paired:
            counts += np.bincount(meets, minlength=k + 1)
            continue
        even = meets.size - meets.size % 2
        np.add.at(pairs, meets[:even].view(np.uint16), 1)
        if even < meets.size:
            counts[meets[-1]] += 1
    if paired:
        pairs = pairs.reshape(256, 256)
        counts += pairs.sum(axis=0) + pairs.sum(axis=1)
    return counts[: k + 1]
