"""Field tower arithmetic on indexes, modulus discovery, and order checks."""

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
    distinct_prime_factors,
    field_build,
    has_order,
    is_prime,
    to_digits,
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
        assert tower.alpha(level) == 1


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
        x, y = xa[0] + 2 * xa[1], xb[0] + 2 * xb[1]
        assert to_digits(tower.mul(1, x, y), 2, 2) == expected
    assert tower.pow(1, tower.alpha(1), 3) == 1


@pytest.mark.parametrize("pekt", PARAM_SETS)
def test_additive_and_multiplicative_identities(pekt):
    tower = field_build(*pekt)
    for level in range(tower.nlevels):
        card = tower.cardinality(level)
        xs = range(card) if card <= 16 else (1, card // 2, card - 1)
        for x in xs:
            assert tower.add(level, x, 0) == x
            assert tower.mul(level, x, 1) == x


def _order_is(tower, level, x, n):
    return has_order(lambda m: tower.pow(level, x, m), 1, n, distinct_prime_factors(n))


def test_element_order_basics():
    tower = field_build(2, 2, 1, 2)
    assert _order_is(tower, 1, 1, 1)
    assert _order_is(tower, 1, tower.alpha(1), 3)
    assert not _order_is(tower, 1, tower.alpha(1), 1)
    # zero has no multiplicative order: no power of it is one
    assert not any(_order_is(tower, 2, 0, n) for n in (1, 2, 3))


@pytest.mark.parametrize("pekt", PARAM_SETS)
def test_adjoined_generators_have_full_order(pekt):
    p, e, k, t = pekt
    tower = field_build(p, e, k, t)
    q = p**e
    assert _order_is(tower, 1, tower.alpha(1), q - 1)
    assert _order_is(tower, 2, tower.alpha(2), q**k - 1)
    assert _order_is(tower, 3, tower.alpha(3), q ** (k * t) - 1)


@pytest.mark.parametrize("pekt", PARAM_SETS + ODD_TOWERS)
def test_inverse_roundtrip_exhaustive(pekt):
    tower = field_build(*pekt)
    for level in range(tower.nlevels):
        if tower.cardinality(level) > 16:
            continue
        with pytest.raises(DivisionByZero):
            tower.inv(level, 0)
        for x in range(1, tower.cardinality(level)):
            assert tower.mul(level, x, tower.inv(level, x)) == 1


def test_pow_conventions():
    tower = field_build(2, 1, 2, 2)
    card = tower.cardinality(2)
    for x in range(card):
        assert tower.pow(2, x, 0) == 1
        if x:
            assert tower.pow(2, x, card - 1) == 1
            assert tower.pow(2, x, card - 2) == tower.inv(2, x)


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
        add = lambda a, b: tower.add(level, a, b)
        mul = lambda a, b: tower.mul(level, a, b)
        for _ in range(25):
            x, y, z = (rng.randrange(card) for _ in range(3))
            assert add(add(x, y), z) == add(x, add(y, z))
            assert mul(mul(x, y), z) == mul(x, mul(y, z))
            assert mul(x, y) == mul(y, x)
            assert add(x, y) == add(y, x)
            assert mul(x, add(y, z)) == add(mul(x, y), mul(x, z))


@pytest.mark.parametrize("pekt", PARAM_SETS + ODD_TOWERS)
def test_frobenius_is_additive(pekt):
    tower = field_build(*pekt)
    rng = random.Random(57)
    p = tower.p
    for level in range(tower.nlevels):
        card = tower.cardinality(level)
        frobenius = lambda a: tower.pow(level, a, p)
        for _ in range(15):
            x = rng.randrange(card)
            y = rng.randrange(card)
            assert frobenius(tower.add(level, x, y)) == tower.add(level, frobenius(x), frobenius(y))


def test_level_and_tower_mismatch_rejected():
    tower = field_build(2, 1, 2, 2)
    other = field_build(3, 1, 1, 1)
    with pytest.raises(LevelMismatch):
        tower.from_index(1, 1) * tower.from_index(2, 1)
    with pytest.raises(LevelMismatch):
        tower.from_index(1, 1) * other.from_index(1, 1)


# construct-mid's towers: the benchmark times `*` and `inverse` on boxed elements of levels 1, 2
BENCHMARK_TOWERS = [(2, 1, 1, 4), (3, 1, 1, 3), (2, 1, 2, 2)]


def test_boxed_multiply_and_inverse_carry_the_index_arithmetic():
    towers = [field_build(*pekt) for pekt in BENCHMARK_TOWERS]
    for tower in towers:
        for level in (1, 2):
            card = tower.cardinality(level)
            for a in range(1, card):
                b = card - a
                x, y = tower.from_index(level, a), tower.from_index(level, b)
                assert (x * y).raw == tower.mul(level, a, b)
                assert x.inverse().raw == tower.inv(level, a)
    # level 2 is where each pair of these towers differs (levels 1 of the p = 2 towers agree)
    for tower, other in itertools.permutations(towers, 2):
        with pytest.raises(LevelMismatch):
            tower.from_index(2, 1) * other.from_index(2, 1)


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
    # indexes from independent builds interoperate
    assert a.alpha(2) == b.alpha(2)
    assert a.mul(2, a.alpha(2), b.alpha(2)) == b.pow(2, a.alpha(2), 2)


def test_index_roundtrip_and_canonical_order():
    # an index's little-endian digits over the level below are its coefficients,
    # so alpha, the class of x, reads (0, 1, 0, ...) wherever the degree is 2 or more
    tower = field_build(2, 1, 2, 2)
    for level in (2, 3):
        degree, card_below = tower.steps[level - 1].degree, tower.cardinality(level - 1)
        assert to_digits(tower.alpha(level), card_below, degree) == (0, 1) + (0,) * (degree - 2)


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

def _coefficients(tower, level, x):
    """Coefficient indexes of x over level - 1, constant term first."""
    return to_digits(x, tower.cardinality(level - 1), tower.steps[level - 1].degree)


def _reference_product(tower, level, x, y):
    """Schoolbook product of the coefficient vectors, reduced by the step modulus."""
    below = level - 1
    add = lambda u, v: tower.add(below, u, v)
    mul = lambda u, v: tower.mul(below, u, v)
    a, b = _coefficients(tower, level, x), _coefficients(tower, level, y)
    modulus = tower.step_modulus(level)
    d = len(a)
    prod = [0] * (2 * d - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = add(prod[i + j], mul(ai, bj))
    for m in range(2 * d - 2, d - 1, -1):
        c = tower.neg(below, prod[m])
        for i, fi in enumerate(modulus):
            prod[m - d + i] = add(prod[m - d + i], mul(c, fi))
    card_below = tower.cardinality(below)
    return sum(c * card_below**i for i, c in enumerate(prod[:d]))


@pytest.mark.parametrize("pekt", PARAM_SETS + ODD_TOWERS)
def test_arithmetic_matches_coefficient_reference(pekt):
    tower = field_build(*pekt)
    for level in range(1, tower.nlevels):
        card = tower.cardinality(level)
        if card > 64:
            continue
        add = lambda u, v: tower.add(level - 1, u, v)
        for x in range(card):
            for y in range(card):
                assert tower.mul(level, x, y) == _reference_product(tower, level, x, y)
                pairs = list(zip(_coefficients(tower, level, x), _coefficients(tower, level, y)))
                assert _coefficients(tower, level, tower.add(level, x, y)) == tuple(
                    add(a, b) for a, b in pairs)
                minus_y = tower.neg(level, y)
                assert _coefficients(tower, level, tower.add(level, x, minus_y)) == tuple(
                    add(a, tower.neg(level - 1, b)) for a, b in pairs)


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
