"""Field tower arithmetic, modulus discovery, and order computation."""

from __future__ import annotations

import hashlib
import itertools
import math
import random
import time

import pytest

from spreadforge.errors import (
    CharacteristicTooLarge,
    DivisionByZero,
    FieldTooLarge,
    LevelMismatch,
    NonPrimeCharacteristic,
)
from spreadforge.gftower import (
    FieldTower,
    coprime_transfer_holds,
    element_order,
    field_build,
    is_prime,
)

from conftest import PARAM_SETS

# Odd-characteristic towers: their sums go through Zech logarithms and
# their negation through -1 = alpha^((card - 1) / 2).
ODD_TOWERS = [(3, 1, 1, 3), (3, 2, 1, 1), (5, 1, 1, 2), (7, 1, 2, 1)]


# --- independent oracle: bit-polynomial arithmetic over F_2 -------------------

def _gf2_mul_mod(a: int, b: int, mod: int) -> int:
    deg = mod.bit_length() - 1
    r = 0
    while b:
        if b & 1:
            r ^= a
        b >>= 1
        a <<= 1
        if a >> deg & 1:
            a ^= mod
    return r


def _gf2_x_order(mod: int) -> int | None:
    """Order of x in F_2[x]/(mod), or None if x is not invertible / never 1."""
    deg = mod.bit_length() - 1
    cur = 2 % mod if deg == 1 else 2
    for i in range(1, 2**deg):
        if cur == 1:
            return i
        cur = _gf2_mul_mod(cur, 2, mod)
    return None


def test_degree2_modulus_over_gf2_is_smallest_primitive():
    # oracle: scan the 4 monic quadratics over F_2 by brute force
    primitive = [m for m in (0b100, 0b101, 0b110, 0b111) if _gf2_x_order(m) == 3]
    assert primitive == [0b111]  # x^2 + x + 1 and nothing else

    tower = field_build(2, 1, 1, 2)
    # the degree-t step (level 3) must have picked exactly that polynomial
    assert tower.step_modulus(3) == (1, 1, 1)


def test_f4_built_from_the_same_quadratic():
    tower = field_build(2, 2, 1, 2)
    assert tower.cardinality(1) == 4
    assert tower.step_modulus(1) == (1, 1, 1)


def test_trivial_tower_all_levels_are_gf2():
    tower = field_build(2, 1, 1, 1)
    assert [tower.cardinality(l) for l in range(4)] == [2, 2, 2, 2]
    for level in (1, 2, 3):
        assert tower.alpha(level) == tower.one(level)


# hand multiplication table for F_4 = {0, 1, a, a+1} under x^2 + x + 1,
# elements written as little-endian digit pairs
_F4_MUL = {
    ((0, 1), (0, 1)): (1, 1),  # a * a = a + 1
    ((1, 1), (0, 1)): (1, 0),  # (a+1) * a = 1
    ((1, 1), (1, 1)): (0, 1),  # (a+1)^2 = a
}


def test_f4_products_match_hand_table():
    tower = field_build(2, 2, 1, 2)
    for (xa, xb), expected in _F4_MUL.items():
        x = tower.element(1, xa)
        y = tower.element(1, xb)
        assert (x * y).digits() == expected
    alpha = tower.alpha(1)
    assert alpha**3 == tower.one(1)


@pytest.mark.parametrize("pekt", PARAM_SETS)
def test_additive_and_multiplicative_identities(pekt):
    tower = field_build(*pekt)
    for level in range(tower.nlevels):
        zero, one = tower.zero(level), tower.one(level)
        card = tower.cardinality(level)
        if card <= 16:
            xs = list(tower.elements(level))
        else:
            xs = [tower.from_index(level, i) for i in (1, card // 2, card - 1)]
        for x in xs:
            assert x + zero == x
            assert x * one == x


def test_element_order_basics():
    tower = field_build(2, 2, 1, 2)
    assert element_order(tower.one(1)) == 1
    assert element_order(tower.alpha(1)) == 3
    with pytest.raises(DivisionByZero):
        element_order(tower.zero(2))


@pytest.mark.parametrize("pekt", PARAM_SETS)
def test_adjoined_generators_have_full_order(pekt):
    p, e, k, t = pekt
    tower = field_build(p, e, k, t)
    q = p**e
    assert element_order(tower.alpha(1)) == q - 1
    assert element_order(tower.alpha(2)) == q**k - 1
    assert element_order(tower.alpha(3)) == q ** (k * t) - 1


@pytest.mark.parametrize("pekt", PARAM_SETS + ODD_TOWERS)
def test_inverse_roundtrip_exhaustive(pekt):
    tower = field_build(*pekt)
    for level in range(tower.nlevels):
        if tower.cardinality(level) > 16:
            continue
        one = tower.one(level)
        for x in tower.elements(level):
            if x.is_zero():
                with pytest.raises(DivisionByZero):
                    x.inverse()
            else:
                assert x * x.inverse() == one


def test_pow_conventions():
    tower = field_build(2, 1, 2, 2)
    one = tower.one(2)
    for x in tower.elements(2):
        assert x**0 == one
        if not x.is_zero():
            assert x ** (tower.cardinality(2) - 1) == one
            assert x**-1 == x.inverse()


def test_coprime_transfer_examples():
    assert coprime_transfer_holds(2, 4) == (True, True)    # gcd(2,3)=1, gcd(5,3)=1
    assert coprime_transfer_holds(3, 4) == (False, False)  # gcd(3,3)=3
    for q in (2, 3, 4, 5, 9, 64):
        assert coprime_transfer_holds(1, q) == (True, True)


def _prime_powers_up_to(bound: int):
    for p in range(2, bound + 1):
        if any(p % d == 0 for d in range(2, p)):
            continue
        q = p
        while q <= bound:
            yield q
            q *= p


def test_coprime_transfer_exhaustive():
    for q in _prime_powers_up_to(64):
        for ell in range(1, 51):
            left, right = coprime_transfer_holds(ell, q)
            assert left == right, (ell, q)


@pytest.mark.parametrize("pekt", PARAM_SETS + ODD_TOWERS)
def test_field_axioms_on_samples(pekt):
    tower = field_build(*pekt)
    rng = random.Random(20240917)
    for level in range(tower.nlevels):
        card = tower.cardinality(level)
        sample = lambda: tower.from_index(level, rng.randrange(card))
        for _ in range(25):
            x, y, z = sample(), sample(), sample()
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * y == y * x
            assert x + y == y + x
            assert x * (y + z) == x * y + x * z


@pytest.mark.parametrize("pekt", PARAM_SETS + ODD_TOWERS)
def test_frobenius_is_additive(pekt):
    tower = field_build(*pekt)
    rng = random.Random(57)
    p = tower.p
    for level in range(tower.nlevels):
        card = tower.cardinality(level)
        for _ in range(15):
            x = tower.from_index(level, rng.randrange(card))
            y = tower.from_index(level, rng.randrange(card))
            assert (x + y) ** p == x**p + y**p


def test_level_and_tower_mismatch_rejected():
    tower = field_build(2, 1, 2, 2)
    other = field_build(3, 1, 1, 1)
    with pytest.raises(LevelMismatch):
        tower.one(1) + tower.one(2)
    with pytest.raises(LevelMismatch):
        tower.one(1) * other.one(1)


def test_build_rejects_bad_arguments():
    with pytest.raises(NonPrimeCharacteristic):
        field_build(4, 1, 1, 1)
    with pytest.raises(NonPrimeCharacteristic):
        field_build(1, 1, 1, 1)
    with pytest.raises(ValueError):
        field_build(2, 0, 1, 1)


def test_descriptor_text_is_reproducible():
    a = field_build(2, 1, 2, 2)
    b = field_build(2, 1, 2, 2)
    assert a.describe() == b.describe()
    assert a == b
    # elements from independent builds interoperate
    assert a.alpha(2) == b.alpha(2)
    assert (a.alpha(2) * b.alpha(2)) == a.alpha(2) ** 2


def test_index_roundtrip_and_canonical_order():
    tower = field_build(2, 1, 2, 2)
    for level in range(tower.nlevels):
        elems = list(tower.elements(level))
        assert elems[0].is_zero()
        assert elems[1] == tower.one(level)
        for i, x in enumerate(elems):
            assert tower.index_of(x) == i


def test_explicit_modulus_override():
    # x^2 + ax + a over F_4 is primitive but not the search's first choice,
    # so pinning it must change the descriptor text
    default = field_build(2, 2, 1, 2)
    alt = FieldTower(2, (2, 1, 2), moduli=[None, None, (2, 2)])
    assert default.describe() != alt.describe()
    with pytest.raises(ValueError):
        FieldTower(2, (2,), moduli=[(1, 0)])  # x^2 + 1 = (x+1)^2 is reducible
    with pytest.raises(ValueError):
        FieldTower(2, (2,), moduli=[(2, 1)])  # 2 is no element of F_2


def test_tables_past_the_guard_are_refused():
    # x^21 + x^19 + 1 is primitive over F_2: the level builds at once, but its
    # 2^21 elements are past the guard, so computing in it is refused
    tower = FieldTower(2, (21,), moduli=[(1,) + (0,) * 18 + (1, 0)])
    assert tower.cardinality(1) == 2**21
    with pytest.raises(FieldTooLarge):
        tower.alpha(1)


def test_huge_characteristic_is_refused_before_any_primality_test():
    start = time.perf_counter()
    with pytest.raises(CharacteristicTooLarge):
        FieldTower(2**61 - 1, (1,))  # trial division alone would take minutes
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("pekt, moduli", [
    ((17, 1, 4, 1), ((3, 1), (3, 0, 0, 6, 1), (17, 1))),
    ((5, 1, 7, 1), ((2, 1), (2, 0, 0, 0, 0, 0, 1, 1), (5, 1))),
])
def test_modulus_search_skips_constant_terms_of_no_primitive_norm(pekt, moduli):
    # a primitive f of degree d has (-1)^d f(0) primitive in the level below;
    # testing every constant term took 5.8 s and 14.8 s on a 2-core host
    start = time.perf_counter()
    tower = field_build(*pekt)
    assert time.perf_counter() - start < 3
    assert tuple(step.modulus for step in tower.steps) == moduli


def test_gcd_utility_rejects_bad_input():
    with pytest.raises(ValueError):
        coprime_transfer_holds(0, 4)
    with pytest.raises(ValueError):
        coprime_transfer_holds(2, 1)


# --- independent reference: coefficient-vector arithmetic -----------------------

def _reference_product(x, y):
    """Schoolbook product of the coefficient vectors, reduced by the step modulus."""
    tower, level = x.tower, x.level
    a, b = x.coefficients(), y.coefficients()
    modulus = [tower.from_index(level - 1, c) for c in tower.step_modulus(level)]
    d = len(a)
    prod = [tower.zero(level - 1)] * (2 * d - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = prod[i + j] + ai * bj
    for m in range(2 * d - 2, d - 1, -1):
        c = prod[m]
        for i, fi in enumerate(modulus):
            prod[m - d + i] = prod[m - d + i] - c * fi
    return tower.element(level, prod[:d])


@pytest.mark.parametrize("pekt", PARAM_SETS + ODD_TOWERS)
def test_arithmetic_matches_coefficient_reference(pekt):
    tower = field_build(*pekt)
    for level in range(1, tower.nlevels):
        if tower.cardinality(level) > 64:
            continue
        elems = list(tower.elements(level))
        for x in elems:
            for y in elems:
                assert x * y == _reference_product(x, y)
                pairs = list(zip(x.coefficients(), y.coefficients()))
                assert (x + y).coefficients() == tuple(a + b for a, b in pairs)
                assert (x - y).coefficients() == tuple(a - b for a, b in pairs)


def _gcd_valid_rows(max_order: int) -> list[tuple[int, int, int, int]]:
    """Every (p, e, k, t) with p prime, q^kt <= max_order and gcd(t, q^k - 1) = 1."""
    rows = []
    for p in filter(is_prime, range(2, max_order + 1)):
        for e, k, t in itertools.product(range(1, max_order.bit_length()), repeat=3):
            qk = p ** (e * k)
            if qk**t <= max_order and math.gcd(t, qk - 1) == 1:
                rows.append((p, e, k, t))
    return rows


def test_modulus_search_picks_the_pinned_moduli():
    # every gcd-valid row with q^kt <= 256, whatever p; the digest fixes the
    # moduli the search must pick, on which golden files and fingerprints rest
    rows = _gcd_valid_rows(256)
    assert len(rows) == 111
    text = "".join(field_build(*row).describe() + "\n" for row in rows)
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == (
        "d67408e09ef1948954c0b4828fd96948a7ba1def1663c1b6ecada26fcac027a3"
    )
