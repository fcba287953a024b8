"""Ingredient designs: trivial designs, one-factorizations, affine
hyperplane designs, and cyclic development of a base parallel class."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import (MAX_POINTS, Block, Design, DesignError, PointSet, _block_array,
                   _capped_comb)
from .galois import _BUILTIN_MODULI, field
from .resolution import ParallelClass, Resolution

__all__ = [
    "CyclicBaseSpec",
    "InvalidBaseClass",
    "MAX_INCIDENCES",
    "OddPointCount",
    "UnsupportedField",
    "affine_hyperplane_design",
    "cyclic_develop",
    "cyclic_point_set",
    "round_robin_one_factorization",
    "sub_factorization_embedding",
    "trivial_design",
]


class OddPointCount(DesignError):
    pass


class InvalidBaseClass(DesignError):
    pass


class UnsupportedField(DesignError):
    pass


# Most point-block incidences b*k a generator builds, checked with v <=
# MAX_POINTS before any block exists.  As tuples of Python ints (as
# trivial_design builds them, or as Design.blocks builds them on request)
# the blocks take up to about 60 bytes per incidence, 0.5 GB at this
# bound; the trivial design C(22, 11) holds 7,759,752 incidences,
# C(24, 12) 32 M.
MAX_INCIDENCES = 1 << 23


# Most blocks a size message states exactly; the trivial design states
# "more than" this many when C(v, k) is larger.
_STATED_BLOCKS = 10**18


def _check_size(what: str, v: int, b: int, k: int) -> None:
    """Raise DesignError when a design of b blocks of size k on v points
    is above MAX_POINTS or MAX_INCIDENCES; b above _STATED_BLOCKS is
    stated as more than that."""
    if v > MAX_POINTS:
        raise DesignError(
            f"{what} has {v} points, above the limit of {MAX_POINTS}"
        )
    if b * k > MAX_INCIDENCES:
        counts = (f"{b} blocks of {k} points, {b * k} incidences"
                  if b <= _STATED_BLOCKS
                  else f"more than {_STATED_BLOCKS} blocks of {k} points")
        raise DesignError(f"{what} has {counts}, above the limit of {MAX_INCIDENCES}")


def trivial_design(v: int, k: int) -> Design:
    """All C(v, k) k-subsets of 0..v-1 in lexicographic order.

    Raises DesignError before building any block when the design is
    above the size limits of _check_size; C(v, k) is computed no further
    than _STATED_BLOCKS.
    """
    if not 2 <= k < v:
        raise DesignError(f"need 2 <= k < v, got k={k} v={v}")
    _check_size(f"the trivial design on v={v} with k={k}", v,
                _capped_comb(v, k, _STATED_BLOCKS), k)
    blocks = tuple(itertools.combinations(range(v), k))
    return Design(points=PointSet(v), blocks=blocks, k=k)


def _resolution_from_classes(points: PointSet, classes, automorphisms=(),
                             block_perms=()):
    """Assemble a design plus resolution from the blocks of each class, as
    an array (class, position, point) or nested sequences numpy reads as
    one; block i * w + j is the j-th block of class i, and the design
    carries the given automorphisms with their block permutations, if
    any (see Design._from_members)."""
    classes = np.asarray(classes)
    count, w, k = classes.shape
    design = Design._from_members(points, classes.reshape(count * w, k),
                                  automorphisms, block_perms)
    refs = np.arange(count * w).reshape(count, w).tolist()
    return design, Resolution(design, tuple(ParallelClass(tuple(r)) for r in refs))


def round_robin_one_factorization(v: int) -> tuple[Design, Resolution]:
    """Circle-method one-factorization of K_v: point v-1 sits fixed, the
    rest rotate; round t pairs the fixed point with t."""
    if v < 4 or v % 2:
        raise OddPointCount(f"one-factorization needs an even v >= 4, got {v}")
    _check_size(f"the one-factorization of K_{v}", v, v * (v - 1) // 2, 2)
    m = v - 1
    classes = []
    for t in range(m):
        factor = [tuple(sorted((v - 1, t)))]
        for j in range(1, v // 2):
            factor.append(tuple(sorted(((t + j) % m, (t - j) % m))))
        classes.append(factor)
    return _resolution_from_classes(PointSet(v), classes)


def sub_factorization_embedding(n: int) -> tuple[Design, Resolution]:
    """One-factorization of K_{4n} containing a sub-one-factorization of
    the K_{2n} on points 0..2n-1.

    The first 2n-1 one-factors pair a factor of each half; the remaining
    2n factors are the cyclic perfect matchings between the halves.  Such
    resolutions are the standard source of replacement-property swaps: the
    half-factors of any two mixed classes can be exchanged.
    """
    if n < 2:
        raise DesignError(f"need n >= 2, got {n}")
    _check_size(f"the one-factorization of K_{4 * n}", 4 * n, 2 * n * (4 * n - 1), 2)
    half = 2 * n
    _, low_res = round_robin_one_factorization(half)
    # Each class of K_2n, on the low half and again on the high half.
    low = low_res.design._members.astype(np.intp)[
        [cls.block_refs for cls in low_res.classes]
    ]
    mixed = np.concatenate((low, low + half), axis=1)
    # The cyclic matchings: class t pairs i with half + (i + t) % half.
    i = np.arange(half)
    cyclic = np.stack(
        [np.stack((i, half + (i + t) % half), axis=1) for t in range(half)]
    )
    return _resolution_from_classes(PointSet(2 * half), np.concatenate((mixed, cyclic)))


def affine_hyperplane_design(m: int, q: int) -> tuple[Design, Resolution]:
    """Hyperplanes of the affine geometry AG(m, q) with their natural
    resolution (one class per direction, q parallel hyperplanes each).

    Points are the q^m coordinate vectors over GF(q), indexed by rank with
    the first coordinate most significant.  Directions are normal vectors
    normalized so the first nonzero coordinate is 1, taken in point order;
    the hyperplanes of a class are ordered by the rank of the dot product
    with the normal.  The design carries as automorphisms the translations
    of one coordinate by an element of rank p^j of GF(q) = GF(p^n): m*n
    generators of the translation group, which maps every hyperplane to a
    parallel one.

    The q^m x m array of coordinate ranks is built once; the dot products
    of all directions with all points are reduced through the field's
    rank tables one coordinate at a time, as one directions x points
    array, and one stable argsort along its rows splits each direction's
    points into the q hyperplanes of q^(m-1) points each, in increasing
    order.
    """
    if m < 2:
        raise DesignError(f"need dimension m >= 2, got {m}")
    if m > MAX_POINTS.bit_length() and q >= 2:  # q^m is not computed
        raise DesignError(
            f"AG({m}, {q}) has {q}^{m} points, above the limit of {MAX_POINTS}"
        )
    v = q**m
    # q hyperplanes of q^(m-1) points for each of 1 + q + ... + q^(m-1)
    # directions.
    directions = sum(q**i for i in range(m))
    _check_size(f"AG({m}, {q})", v, q * directions, q ** (m - 1))
    if q not in _BUILTIN_MODULI:
        orders = ", ".join(map(str, _BUILTIN_MODULI))
        raise UnsupportedField(
            f"no built-in field of order {q}; AG(m, q) is built for q in {orders}"
        )
    spec = field(q)
    add, mul = spec.add_table, spec.mul_table
    weights = q ** np.arange(m - 1, -1, -1)
    coords = (np.arange(v)[:, None] // weights % q).astype(add.dtype)
    # Rank 1 is the field's one: keep vectors whose first nonzero rank is 1.
    first = coords[np.arange(v), (coords != 0).argmax(axis=1)]
    normals = coords[first == 1]
    total = mul[normals[:, :1], coords[:, 0]]
    for c in range(1, m):
        total = add[total, mul[normals[:, c:c + 1], coords[:, c]]]
    classes = np.argsort(total, axis=1, kind="stable").reshape(-1, q, v // q)
    translations = []
    for c in range(m):
        old = coords[:, c].astype(np.intp)
        for j in range(spec.n):
            new = add[coords[:, c], spec.p**j].astype(np.intp)
            image = np.arange(v) + (new - old) * weights[c]
            translations.append(tuple(image.tolist()))
    return _resolution_from_classes(PointSet(v), classes, tuple(translations))


def cyclic_point_set(n: int, has_infinity: bool) -> PointSet:
    """Points 0..n-1 labelled by residue; with has_infinity, point n is
    the fixed point labelled "inf"."""
    if has_infinity:
        return PointSet(n + 1, tuple(str(i) for i in range(n)) + ("inf",))
    return PointSet(n, tuple(str(i) for i in range(n)))


@dataclass(frozen=True)
class CyclicBaseSpec:
    """A base parallel class to be developed through Z_n.

    Blocks live on v = n (+1 with the fixed point) points; they must be
    disjoint and cover every point so each translate is again a parallel
    class.
    """

    n: int
    has_infinity: bool
    base_class: tuple[Block, ...]

    def __post_init__(self) -> None:
        """Check the block size and the blocks as a design's
        (_block_array), then the cover."""
        v = self.v
        if not self.base_class:
            raise InvalidBaseClass("base class has no blocks")
        if not 2 <= self.k < v:
            raise InvalidBaseClass(
                f"block size must satisfy 2 <= k < v (k={self.k}, v={v})"
            )
        try:
            members = _block_array(self.base_class, self.k, v)
        except DesignError as exc:
            raise InvalidBaseClass(str(exc)) from None
        cover = np.bincount(members.ravel())  # sized by the points given, not by v
        if (cover > 1).any():
            raise InvalidBaseClass("base class blocks are not disjoint")
        if members.size != v:
            raise InvalidBaseClass(f"base class covers {members.size} of {v} points")

    @property
    def v(self) -> int:
        return self.n + (1 if self.has_infinity else 0)

    @property
    def k(self) -> int:
        return len(self.base_class[0])


def cyclic_develop(spec: CyclicBaseSpec) -> tuple[Design, Resolution]:
    """Develop the base class through Z_n: translate t maps x < n to
    (x+t) mod n and fixes the point n.  Classes are the n translates, all
    developed at once as an array (translate, block, point), and the
    design carries the translate x -> x+1 as its automorphism, with the
    block permutation it is known to induce: block j of class t goes to
    block j of class (t+1) mod n.  Design._permutations checks that claim
    instead of searching for the permutation."""
    n = spec.n
    _check_size(f"the development of a base class through Z_{n}", spec.v,
                n * len(spec.base_class), spec.k)
    base = np.array(spec.base_class)
    shifts = np.arange(n)[:, None, None]
    classes = np.where(base < n, (base + shifts) % n, base)
    classes.sort(axis=-1)
    points = cyclic_point_set(n, spec.has_infinity)
    shift = tuple(range(1, n)) + (0,) + ((n,) if spec.has_infinity else ())
    w = len(spec.base_class)
    blocks = (np.arange(n * w) + w) % (n * w)
    return _resolution_from_classes(points, classes, (shift,), (blocks,))
