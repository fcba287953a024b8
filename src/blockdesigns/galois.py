"""Small finite fields GF(p^n) with explicit polynomial moduli.

Elements are coefficient tuples of length n over GF(p), constant term
first.  The element of rank i (0 <= i < q) has the base-p digits of i as
coefficients, least significant first, so ``FieldSpec.elements()`` lists
the field in a stable order suitable for serialization.

Field arithmetic is read from ``FieldSpec.add_table`` and ``mul_table``:
read-only q x q numpy arrays indexed by rank, where entry [i, j] is the
rank of the sum or product of the elements of ranks i and j.  They are
built once per field from the polynomial ``add`` and ``mul`` on element
tuples and shared by equal specs.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "FieldElement",
    "FieldSpec",
    "GaloisError",
    "MAX_TABLE_ORDER",
    "NotPrimePower",
    "ReducibleModulus",
    "field",
]


class GaloisError(ValueError):
    """Invalid field specification or element."""


class NotPrimePower(GaloisError):
    pass


class ReducibleModulus(GaloisError):
    pass


FieldElement = tuple[int, ...]

# Moduli for the supported orders, constant term first.  Extension fields
# use Conway polynomials; prime fields reduce modulo x.
_BUILTIN_MODULI: dict[int, tuple[int, ...]] = {
    2: (0, 1),
    3: (0, 1),
    4: (1, 1, 1),
    5: (0, 1),
    7: (0, 1),
    8: (1, 1, 0, 1),
    9: (2, 2, 1),
    11: (0, 1),
    13: (0, 1),
    16: (1, 1, 0, 0, 1),
    25: (2, 4, 1),
    27: (1, 2, 0, 1),
    32: (1, 0, 1, 0, 0, 1),
    49: (3, 6, 1),
    64: (1, 1, 0, 1, 1, 0, 1),
}

# Largest order with rank tables: q^2 entries of at most one byte each.
MAX_TABLE_ORDER = 256


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _factor_prime_power(q: int) -> tuple[int, int]:
    if q < 2:
        raise NotPrimePower(f"{q} is not a prime power")
    p = 2
    while q % p:
        p += 1
    n = 0
    m = q
    while m % p == 0:
        m //= p
        n += 1
    if m != 1:
        raise NotPrimePower(f"{q} is not a prime power")
    return p, n


def _trim(poly: tuple[int, ...]) -> tuple[int, ...]:
    i = len(poly)
    while i > 0 and poly[i - 1] == 0:
        i -= 1
    return poly[:i]


def _poly_rem(a: tuple[int, ...], b: tuple[int, ...], p: int) -> tuple[int, ...]:
    """Remainder of a mod b over GF(p); b must be monic."""
    rem = list(a)
    db = len(b) - 1
    for i in range(len(rem) - 1, db - 1, -1):
        c = rem[i]
        if c:
            for j in range(db + 1):
                rem[i - db + j] = (rem[i - db + j] - c * b[j]) % p
    return _trim(tuple(rem[:db]))


def _is_irreducible(modulus: tuple[int, ...], p: int) -> bool:
    m = _trim(modulus)
    deg = len(m) - 1
    if deg < 1:
        return False
    # Trial division by every monic polynomial of degree <= deg/2 suffices
    # at the supported sizes (deg <= 6).
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            divisor = tuple(tail) + (1,)
            if not _poly_rem(m, divisor, p):
                return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """GF(p^n) presented as polynomial residues modulo a fixed monic
    irreducible polynomial of degree n (coefficients constant term first)."""

    p: int
    n: int
    modulus: tuple[int, ...]

    def __post_init__(self) -> None:
        if not _is_prime(self.p):
            raise GaloisError(f"characteristic {self.p} is not prime")
        if self.n < 1:
            raise GaloisError("extension degree must be >= 1")
        if len(self.modulus) != self.n + 1:
            raise GaloisError(
                f"modulus must have degree {self.n} (got {len(self.modulus) - 1})"
            )
        if any(not 0 <= c < self.p for c in self.modulus):
            raise GaloisError("modulus coefficients must be reduced mod p")
        if self.modulus[-1] != 1:
            raise GaloisError("modulus must be monic")
        if not _is_irreducible(self.modulus, self.p):
            raise ReducibleModulus(
                f"modulus {self.modulus} is reducible over GF({self.p})"
            )

    @property
    def q(self) -> int:
        return self.p**self.n

    def _check(self, a: FieldElement) -> None:
        if len(a) != self.n or any(not 0 <= c < self.p for c in a):
            raise GaloisError(f"{a!r} is not an element of GF({self.q})")

    def add(self, a: FieldElement, b: FieldElement) -> FieldElement:
        self._check(a)
        self._check(b)
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def mul(self, a: FieldElement, b: FieldElement) -> FieldElement:
        self._check(a)
        self._check(b)
        p, n = self.p, self.n
        conv = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    conv[i + j] = (conv[i + j] + x * y) % p
        for i in range(len(conv) - 1, n - 1, -1):
            c = conv[i]
            if c:
                for j in range(n + 1):
                    conv[i - n + j] = (conv[i - n + j] - c * self.modulus[j]) % p
        return tuple(conv[:n])

    def rank(self, a: FieldElement) -> int:
        self._check(a)
        return sum(c * self.p**i for i, c in enumerate(a))

    def from_rank(self, i: int) -> FieldElement:
        if not 0 <= i < self.q:
            raise GaloisError(f"rank {i} out of range for GF({self.q})")
        coeffs = []
        for _ in range(self.n):
            coeffs.append(i % self.p)
            i //= self.p
        return tuple(coeffs)

    def elements(self) -> list[FieldElement]:
        """All q elements, ordered by rank (coefficient vectors in
        lexicographic order, constant term fastest)."""
        return [self.from_rank(i) for i in range(self.q)]

    @property
    def add_table(self) -> np.ndarray:
        """q x q ranks of sums: [i, j] is rank(add(from_rank(i), from_rank(j)))."""
        return _rank_tables(self)[0]

    @property
    def mul_table(self) -> np.ndarray:
        """q x q ranks of products: [i, j] is rank(mul(from_rank(i), from_rank(j)))."""
        return _rank_tables(self)[1]


@functools.lru_cache(maxsize=32)
def _rank_tables(spec: FieldSpec) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (add, mul) rank tables of spec, built from its polynomial
    arithmetic."""
    q = spec.q
    if q > MAX_TABLE_ORDER:
        raise GaloisError(
            f"GF({q}) is above the largest order with rank tables, {MAX_TABLE_ORDER}"
        )
    elems = spec.elements()
    tables = []
    for op in (spec.add, spec.mul):
        table = np.array(
            [[spec.rank(op(a, b)) for b in elems] for a in elems],
            dtype=np.uint8,
        )
        table.flags.writeable = False
        tables.append(table)
    return tables[0], tables[1]


def field(q: int, modulus: tuple[int, ...] | None = None) -> FieldSpec:
    """Build GF(q) for a prime power q.

    Orders in the built-in table need no modulus; any other prime power
    requires an explicit monic irreducible modulus (constant term first).
    """
    p, n = _factor_prime_power(q)
    if modulus is None:
        if q not in _BUILTIN_MODULI:
            raise GaloisError(
                f"no built-in modulus for GF({q}); supply one explicitly"
            )
        modulus = _BUILTIN_MODULI[q]
    else:
        modulus = tuple(c % p for c in modulus)
    return FieldSpec(p=p, n=n, modulus=modulus)
