"""Exact arithmetic in the finite-field tower F_p < F_q < F_{q^k} < F_{q^kt}.

A tower is built from three extension steps of degrees e, k and t.  Every
step uses the lexicographically smallest monic primitive polynomial over
the level below, found by exhaustive search, so two towers built from the
same (p, e, k, t) are identical and all downstream output is reproducible.

Every element is stored as its canonical index, a plain int: the residue
mod p at level 0, and at level j >= 1 the little-endian number in base
|level j-1| whose digits index the element's coefficients, so its base-p
digits are the flattened coefficient vector.  Level 0 computes mod p.
Each higher level computes with exp/log tables of its primitive generator
alpha: products add logarithms, and sums are XOR when p = 2 and Zech
logarithms log(1 + alpha^m) otherwise.  Polynomial arithmetic modulo a
step's modulus runs only to search for moduli and to fill the tables.

The index is the one element form: `FieldTower.add/neg/mul/pow/inv`
compute on indexes, `FieldTower.alpha` returns one, and every other module
uses nothing else.  `FieldElement` survives only as the operand of the
benchmark harness's multiply and inverse timings.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

from .errors import (
    CharacteristicTooLarge,
    DegreeOutOfRange,
    DivisionByZero,
    FieldTooLarge,
    LevelMismatch,
    NonPrimeCharacteristic,
    NoPrimitivePolynomialFound,
)

# The one digit alphabet: base-p digits in text (descriptors, reprs, code files).
DIGIT_ALPHABET = "0123456789abcdefghijklmnopqrstuvwxyz"
# Each level keeps tables of about 4 ints per element; refuse levels past this.
TABLE_GUARD = 1 << 20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def check_tower_params(p: int, e: int, k: int, t: int) -> None:
    """Refuse a characteristic past the digit alphabet, then a composite one, then a degree below 1.

    The alphabet bound comes first: it caps p at 36, so the trial division
    in is_prime never runs on a huge p.
    """
    if p > len(DIGIT_ALPHABET):
        raise CharacteristicTooLarge(
            f"characteristic {p} exceeds the {len(DIGIT_ALPHABET)}-symbol digit alphabet"
        )
    if not is_prime(p):
        raise NonPrimeCharacteristic(f"characteristic {p} is not prime")
    if min(e, k, t) < 1:
        raise DegreeOutOfRange(f"degrees must be >= 1, got e={e}, k={k}, t={t}")


def has_order(power: Callable[[int], object], one: object, n: int,
              primes: Sequence[int]) -> bool:
    """True when power(n) == one and power(n // ell) != one for every ell in `primes`.

    With `primes` the distinct prime factors of n, this is "the element whose
    powers `power` computes has order exactly n".
    """
    return power(n) == one and all(power(n // ell) != one for ell in primes)


def distinct_prime_factors(n: int) -> list[int]:
    """Prime factors of n by trial division, ascending, without multiplicity."""
    factors = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            factors.append(f)
            while n % f == 0:
                n //= f
        f += 1 if f == 2 else 2
    if n > 1:
        factors.append(n)
    return factors


def coprime_transfer_holds(ell: int, q: int) -> tuple[bool, bool]:
    """Evaluate both sides of the gcd transfer equivalence for (ell, q).

    Returns (gcd(ell, q-1) == 1, gcd((q^ell - 1)/(q - 1), q - 1) == 1).
    The two booleans agree for every ell >= 1 and prime power q >= 2.
    """
    if ell < 1 or q < 2:
        raise ValueError(f"need ell >= 1 and q >= 2, got ell={ell}, q={q}")
    left = math.gcd(ell, q - 1) == 1
    right = math.gcd((q**ell - 1) // (q - 1), q - 1) == 1
    return left, right


def to_digits(index: int, base: int, length: int) -> tuple[int, ...]:
    """Little-endian base-`base` digits of `index`, exactly `length` of them."""
    out = []
    for _ in range(length):
        index, d = divmod(index, base)
        out.append(d)
    return tuple(out)


def _from_digits(digits: Sequence[int], base: int) -> int:
    index = 0
    for d in reversed(digits):
        index = index * base + d
    return index


class FieldStep:
    """One extension step: a monic primitive modulus over the level below,
    and the arithmetic tables of the level it creates.

    `tables` stays None until that level first computes (the top level of
    a tower usually never does), then holds (exp, log, zech).  With
    n = cardinality - 1: exp[m] is the index of alpha^m for m in [0, 2n),
    listed twice so a sum of two logarithms needs no reduction; log
    inverts exp on nonzero indexes; for odd p, zech[m] is log(1 + alpha^m),
    or -1 where 1 + alpha^m = 0.
    """

    __slots__ = ("degree", "modulus", "cardinality", "tables")

    def __init__(self, degree: int, modulus: tuple[int, ...], cardinality: int):
        self.degree = degree
        self.modulus = modulus  # degree+1 indexes over the previous level, monic
        self.cardinality = cardinality  # of the level this step creates
        self.tables: tuple[list[int], list[int], list[int] | None] | None = None

    def __repr__(self) -> str:
        return f"FieldStep(degree={self.degree}, cardinality={self.cardinality})"


class FieldElement:
    """One index boxed with its tower and level, kept for the benchmark harness only.

    perfbench/traced.py (`field_micro`) times `a * b` and `a.inverse()` on boxes
    from FieldTower.from_index.  `*` across levels or towers raises LevelMismatch.
    """

    __slots__ = ("tower", "level", "raw")

    def __init__(self, tower: "FieldTower", level: int, raw: int):
        self.tower = tower
        self.level = level
        self.raw = raw

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        if self.level != other.level or not self.tower.compatible_at(other.tower, self.level):
            raise LevelMismatch(
                f"operands at levels {self.level} and {other.level} of incompatible towers"
            )
        return FieldElement(self.tower, self.level, self.tower.mul(self.level, self.raw, other.raw))

    def inverse(self) -> "FieldElement":
        return FieldElement(self.tower, self.level, self.tower.inv(self.level, self.raw))


class FieldTower:
    """The tower descriptor plus all element arithmetic.

    Levels are indexed 0..3: F_p, F_q, F_{q^k}, F_{q^kt}.  Towers built
    from equal parameters compare equal, so elements, matrices and codes
    remain comparable across independent builds.
    """

    def __init__(self, p: int, degrees: Sequence[int],
                 moduli: Sequence[Sequence[int] | None] | None = None):
        """Build the tower; `moduli` optionally pins a step's modulus.

        Each override is a digit vector (constant term first, entries as
        canonical element indexes over the level below) of the monic part;
        it must still be primitive.  Used to probe how outputs depend on
        the modulus choice; normal builds search for the smallest one.
        """
        # every level above F_p has at least p elements, so past TABLE_GUARD none has
        # tables; the bound comes before is_prime, whose trial division a huge p would stall
        if p > TABLE_GUARD:
            raise CharacteristicTooLarge(f"characteristic {p} exceeds TABLE_GUARD {TABLE_GUARD}")
        if not is_prime(p):
            raise NonPrimeCharacteristic(f"characteristic {p} is not prime")
        if any(d < 1 for d in degrees):
            raise DegreeOutOfRange(f"extension degrees must be >= 1, got {tuple(degrees)}")
        if moduli is None:
            moduli = [None] * len(degrees)
        self.p = p
        self.steps: list[FieldStep] = []
        self._cards = [p]
        self._spans = [1]  # base-p digits per element, by level
        for d, override in zip(degrees, moduli):
            self._extend(d, override)
        self._key = (p, tuple(s.modulus for s in self.steps))
        # arithmetic at level j only depends on the steps below it
        self._level_keys = tuple(
            (p,) + tuple(s.modulus for s in self.steps[:j]) for j in range(len(self.steps) + 1)
        )

    # -- identity -------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FieldTower) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)

    def __repr__(self) -> str:
        return f"FieldTower(p={self.p}, cards={self._cards})"

    # -- structure ------------------------------------------------------------

    @property
    def nlevels(self) -> int:
        return len(self.steps) + 1

    def cardinality(self, level: int) -> int:
        return self._cards[level]

    def step_modulus(self, level: int) -> tuple[int, ...]:
        """Modulus of the step creating `level`, as indexes at level-1, constant term first."""
        return self.steps[level - 1].modulus

    def compatible_at(self, other: "FieldTower", level: int) -> bool:
        """True when both towers define identical arithmetic up to `level`."""
        return self._level_keys[level] == other._level_keys[level]

    def describe(self) -> str:
        """Canonical one-line text form, identical across rebuilds."""
        parts = [f"p={self.p}"]
        for idx, step in enumerate(self.steps):
            coeffs = ",".join(
                "".join(DIGIT_ALPHABET[d] for d in to_digits(c, self.p, self._spans[idx]))
                for c in step.modulus
            )
            parts.append(f"step={step.degree}:{coeffs}")
        return "; ".join(parts)

    def alpha(self, level: int) -> int:
        """Index of the class of the indeterminate at `level`; it generates the unit group."""
        if level < 1:
            raise LevelMismatch("level 0 has no adjoined generator")
        exp, _, _ = self.steps[level - 1].tables or self._tabulate(level)
        return exp[1]

    def from_index(self, level: int, index: int) -> FieldElement:
        """Element number `index`, boxed; only the benchmark harness uses the box."""
        if not 0 <= index < self.cardinality(level):
            raise ValueError(f"index {index} out of range at level {level}")
        return FieldElement(self, level, index)

    def digit_length(self, level: int) -> int:
        """Number of base-p digits a level element flattens to."""
        return self._spans[level]

    # -- index arithmetic: mod p at level 0, table lookups above --------------
    # Operands are canonical indexes at `level`; none of these checks its inputs.

    def add(self, level: int, a: int, b: int) -> int:
        if level == 0:
            return (a + b) % self.p
        if self.p == 2:
            return a ^ b
        if a == 0:
            return b
        if b == 0:
            return a
        exp, log, zech = self.steps[level - 1].tables or self._tabulate(level)
        la = log[a]
        z = zech[(log[b] - la) % (len(log) - 1)]
        return 0 if z < 0 else exp[la + z]

    def neg(self, level: int, a: int) -> int:
        if level == 0:
            return -a % self.p
        if self.p == 2 or a == 0:
            return a
        exp, log, _ = self.steps[level - 1].tables or self._tabulate(level)
        # -1 = alpha^((card - 1) / 2)
        return exp[log[a] + (len(log) - 1) // 2]

    def mul(self, level: int, a: int, b: int) -> int:
        if level == 0:
            return a * b % self.p
        if a == 0 or b == 0:
            return 0
        exp, log, _ = self.steps[level - 1].tables or self._tabulate(level)
        return exp[log[a] + log[b]]

    def pow(self, level: int, a: int, n: int) -> int:
        """a^n for n >= 0, with 0^0 = 1."""
        if level == 0:
            return pow(a, n, self.p)
        if a == 0:
            return 0 if n else 1
        exp, log, _ = self.steps[level - 1].tables or self._tabulate(level)
        return exp[log[a] * n % (len(log) - 1)]

    def inv(self, level: int, a: int) -> int:
        if a == 0:
            raise DivisionByZero(f"zero has no inverse at level {level}")
        if level == 0:
            return pow(a, self.p - 2, self.p)
        exp, log, _ = self.steps[level - 1].tables or self._tabulate(level)
        return exp[-log[a] % (len(log) - 1)]

    # -- tower construction ---------------------------------------------------

    def _extend(self, degree: int, override: Sequence[int] | None = None) -> None:
        level = len(self.steps)  # level being extended *from*
        card_below = self._cards[-1]
        card = card_below**degree
        if override is not None:
            if len(override) != degree or any(not 0 <= c < card_below for c in override):
                raise ValueError(f"override needs {degree} coefficient indexes below {card_below}")
            modulus = tuple(override) + (1,)
            primes = distinct_prime_factors(card - 1)
            if not self._x_order_is(level, modulus, card - 1, primes):
                raise ValueError("override modulus is not primitive")
        else:
            modulus = self._search_primitive_modulus(level, degree, card - 1)
        self.steps.append(FieldStep(degree, modulus, card))
        self._cards.append(card)
        self._spans.append(self._spans[-1] * degree)

    def _tabulate(self, level: int) -> tuple:
        """Fill the tables of `level` by walking the powers of x, which is primitive."""
        step, below = self.steps[level - 1], level - 1
        card, card_below = step.cardinality, self._cards[below]
        if card > TABLE_GUARD:
            raise FieldTooLarge(f"level {level} has {card} elements, guard is {TABLE_GUARD}")
        n = card - 1
        exp, log = [0] * n, [0] * card
        x = self._x_residue(below, step.modulus)
        power = [1] + [0] * (step.degree - 1)
        for m in range(n):
            index = _from_digits(power, card_below)
            exp[m], log[index] = index, m
            power = self._polymod_mul(below, step.modulus, power, x)
        zech = None
        if self.p != 2:
            # 1 + alpha^m differs from alpha^m only in the constant coefficient
            sums = (e - e % card_below + self.add(below, e % card_below, 1) for e in exp)
            zech = [log[s] if s else -1 for s in sums]
        step.tables = (exp + exp, log, zech)
        return step.tables

    def _search_primitive_modulus(self, level: int, degree: int, group_order: int) -> tuple:
        """Lexicographically smallest monic primitive polynomial of `degree`.

        Candidates are scanned in lexicographic order of the coefficient
        vector (constant term first, each coefficient in canonical element
        order).  A candidate is accepted iff the class of x in the quotient
        ring has multiplicative order exactly group_order, which implies
        irreducibility as well.  Its root's norm, (-1)^degree times the
        constant term, is then primitive in the level below, so a constant
        term failing that is skipped before x is powered: the first hit is
        the same.
        """
        card = self._cards[level]
        primes = distinct_prime_factors(group_order)
        below_primes = distinct_prime_factors(card - 1)
        for c in range(1, card):
            norm = self.neg(level, c) if degree % 2 else c
            if not has_order(lambda n: self.pow(level, norm, n), 1, card - 1, below_primes):
                continue
            for coeffs in itertools.product(range(card), repeat=degree - 1):
                modulus = (c,) + coeffs + (1,)
                if self._x_order_is(level, modulus, group_order, primes):
                    return modulus
        raise NoPrimitivePolynomialFound(
            f"no primitive polynomial of degree {degree} over level {level}"
        )

    def _x_residue(self, level: int, modulus: tuple) -> list[int]:
        """Class of x modulo a monic modulus over `level`, as coefficient indexes."""
        degree = len(modulus) - 1
        if degree == 1:
            return [self.neg(level, modulus[0])]
        return [0, 1] + [0] * (degree - 2)

    def _x_order_is(self, level: int, modulus: tuple, group_order: int,
                    primes: list[int]) -> bool:
        if modulus[0] == 0:
            return False  # x divides the candidate
        one = [1] + [0] * (len(modulus) - 2)
        x = self._x_residue(level, modulus)

        def x_power(n: int) -> list[int]:
            result, base = one, x
            while n > 0:
                if n & 1:
                    result = self._polymod_mul(level, modulus, result, base)
                base = self._polymod_mul(level, modulus, base, base)
                n >>= 1
            return result

        return has_order(x_power, one, group_order, primes)

    def _polymod_mul(self, level: int, modulus: tuple, a: list[int], b: list[int]) -> list[int]:
        """Product of two residues mod a monic modulus, coefficients over `level`."""
        degree = len(modulus) - 1
        add, mul = self.add, self.mul
        b_terms = [(j, bj) for j, bj in enumerate(b) if bj]
        # the monic top term is left out: it only cancels the coefficient reduced
        f_terms = [(i, fi) for i, fi in enumerate(modulus[:degree]) if fi]
        prod = [0] * (2 * degree - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in b_terms:
                    prod[i + j] = add(level, prod[i + j], mul(level, ai, bj))
        for m in range(2 * degree - 2, degree - 1, -1):
            c = prod[m]
            if c:
                nc = self.neg(level, c)
                for i, fi in f_terms:
                    prod[m - degree + i] = add(level, prod[m - degree + i], mul(level, nc, fi))
        return prod[:degree]


def _check_size(p: int, degree: int, name: str) -> None:
    # as p >= 2, a degree past the guard's bit length is too large before p^degree is computed
    if degree >= TABLE_GUARD.bit_length() or p**degree > TABLE_GUARD:
        size = p**degree if degree <= 64 else f"{p}^{degree}"
        raise FieldTooLarge(f"field {name} has {size} elements, guard is {TABLE_GUARD}")


def check_field_size(p: int, e: int, k: int) -> None:
    """Refuse F_{q^k}, q = p^e, past TABLE_GUARD; call it before any modulus search.

    The search for the degree-k modulus grows with q^k, so an oversized field
    would spin there long before its tables are refused.
    """
    _check_size(p, e * k, f"F_{{q^k}} with p={p}, e={e}, k={k}")


def check_tower_size(p: int, e: int, k: int, t: int) -> None:
    """Refuse F_{q^k}, then F_{q^kt}, past TABLE_GUARD, before any power of t is formed."""
    check_field_size(p, e, k)
    _check_size(p, e * k * t, f"F_{{q^kt}} with p={p}, e={e}, k={k}, t={t}")


def field_build(p: int, e: int, k: int, t: int) -> FieldTower:
    """Build the four-level tower for parameters (p, e, k, t).

    Levels: 0 = F_p, 1 = F_q with q = p^e, 2 = F_{q^k}, 3 = F_{q^kt}.
    The level-3 step exists to fix the degree-t modulus whose companion
    matrix drives the group construction.  Its search grows with q^kt too,
    so F_{q^kt} is refused past TABLE_GUARD, after F_{q^k}, before any search.
    """
    check_tower_size(p, e, k, t)
    return FieldTower(p, (e, k, t))

