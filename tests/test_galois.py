import numpy as np
import pytest

from blockdesigns.galois import (
    FieldSpec,
    GaloisError,
    NotPrimePower,
    ReducibleModulus,
    field,
)

AXIOM_ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


def test_field_8():
    spec = field(8)
    assert (spec.p, spec.n) == (2, 3)
    assert spec.modulus == (1, 1, 0, 1)  # x^3 + x + 1


def test_field_prime():
    spec = field(7)
    assert (spec.p, spec.n) == (7, 1)
    assert spec.modulus == (0, 1)


def test_field_not_prime_power():
    with pytest.raises(NotPrimePower):
        field(6)
    with pytest.raises(NotPrimePower):
        field(1)


def test_reducible_modulus_rejected():
    with pytest.raises(ReducibleModulus):
        field(8, modulus=(0, 0, 0, 1))  # x^3 = x*x*x
    with pytest.raises(ReducibleModulus):
        FieldSpec(p=2, n=2, modulus=(1, 0, 1))  # x^2+1 = (x+1)^2 over GF(2)


def test_non_monic_rejected():
    with pytest.raises(GaloisError):
        FieldSpec(p=3, n=1, modulus=(0, 2))


def test_char2_addition():
    spec = field(2)
    assert spec.add((1,), (1,)) == (0,)


def test_gf8_x_times_x_squared():
    spec = field(8)
    x = (0, 1, 0)
    x2 = (0, 0, 1)
    # x^3 reduces to x + 1 under x^3 + x + 1
    assert spec.mul(x, x2) == (1, 1, 0)


def test_gf9_custom_modulus():
    spec = field(9, modulus=(1, 0, 1))  # x^2 + 1, irreducible over GF(3)
    x = (0, 1)
    # x^2 = -1 = 2
    assert spec.mul(x, x) == (2, 0)


def test_elements_order():
    assert field(2).elements() == [(0,), (1,)]
    four = field(4).elements()
    assert len(four) == 4
    assert four[0] == (0, 0)
    assert four == sorted(four, key=lambda e: e[::-1])


def test_gf8_closure():
    spec = field(8)
    elems = set(spec.elements())
    assert len(elems) == 8
    for a in elems:
        for b in elems:
            assert spec.add(a, b) in elems
            assert spec.mul(a, b) in elems


@pytest.mark.parametrize("q", AXIOM_ORDERS)
def test_field_axioms(q):
    # On the rank tables the generators read; ranks 0 and 1 are zero and one.
    spec = field(q)
    add, mul = spec.add_table, spec.mul_table
    ranks = np.arange(q)
    a, b, c = np.ix_(ranks, ranks, ranks)
    for table in (add, mul):
        assert (table == table.T).all()
        assert (table[table[a, b], c] == table[a, table[b, c]]).all()
    assert (mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]).all()
    assert (add[:, 0] == ranks).all()
    assert (mul[:, 1] == ranks).all()


@pytest.mark.parametrize("q", AXIOM_ORDERS)
def test_multiplicative_order_and_inverses(q):
    spec = field(q)
    add, mul = spec.add_table, spec.mul_table
    ranks = np.arange(q)
    # Each row of the sum table and each nonzero row of the product table
    # is a permutation, so it holds 0 (a negative) or 1 (an inverse)
    # exactly once; zero has no inverse.
    assert (np.sort(add, axis=1) == ranks).all()
    assert (np.sort(mul[1:], axis=1) == ranks).all()
    assert (mul[0] == 0).all()
    power = np.ones(q - 1, dtype=np.intp)
    for _ in range(q - 1):
        power = mul[power, ranks[1:]]
    assert (power == 1).all()  # a^(q-1) = 1 for every nonzero a


def test_rank_roundtrip():
    spec = field(27)
    for i in range(27):
        assert spec.rank(spec.from_rank(i)) == i


def test_unsupported_order_needs_modulus():
    with pytest.raises(GaloisError):
        field(17)
    spec = field(17, modulus=(0, 1))
    assert spec.q == 17


@pytest.mark.parametrize(
    "spec",
    [field(q) for q in (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 49, 64)]
    + [field(17, modulus=(0, 1))],
    ids=lambda spec: f"GF({spec.q})",
)
def test_rank_tables_agree_with_polynomial_arithmetic(spec):
    elems = spec.elements()
    add, mul = spec.add_table, spec.mul_table
    assert add.shape == mul.shape == (spec.q, spec.q)
    assert not add.flags.writeable and not mul.flags.writeable
    assert FieldSpec(spec.p, spec.n, spec.modulus).mul_table is mul  # built once
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            assert add[i, j] == spec.rank(spec.add(a, b))
            assert mul[i, j] == spec.rank(spec.mul(a, b))


def test_rank_tables_refuse_large_orders():
    spec = field(257, modulus=(0, 1))
    with pytest.raises(GaloisError, match="rank tables"):
        spec.add_table
