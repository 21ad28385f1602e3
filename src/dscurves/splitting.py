"""Splitting behavior of places in quadratic extensions of F_q(t), quaternion
splitting tests, and the global non-existence criterion for d = 2.

A quadratic extension K = F(sqrt(eps * radical)) is described by a unit eps
and a monic square-free radical.  A quaternion division algebra split at
infinity is described purely by its two finite ramified primes; every
predicate needed here factors through splitting behavior at places.
"""

import enum
from dataclasses import dataclass, field

from . import ffield
from .errors import InvalidInput
from .fpoly import (Poly, format_poly, is_squarefree, require_monic_irreducible,
                    residue_symbol)
from .weil import p_excluded


class SplitType(enum.Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


@dataclass(frozen=True)
class QuadraticField:
    """K = F(sqrt(eps * radical)); radical monic square-free of degree >= 1."""

    eps: int
    radical: Poly

    def __post_init__(self):
        q = self.radical.q
        if self.eps % q == 0:
            raise InvalidInput("eps must be a unit")
        object.__setattr__(self, "eps", self.eps % q)
        if not self.radical.is_monic or self.radical.degree < 1:
            raise InvalidInput("radical must be monic of degree >= 1")
        if not is_squarefree(self.radical):
            raise InvalidInput("radical must be square-free")

    @property
    def q(self):
        return self.radical.q

    @property
    def radicand(self):
        return self.eps * self.radical

    def __str__(self):
        return "F(sqrt(%s))" % format_poly(self.radicand)


@dataclass(frozen=True)
class QuaternionData:
    """Quaternion division algebra over F_q(t), split at infinity, ramified
    exactly at the two distinct monic irreducibles (ram1, ram2)."""

    ram1: Poly
    ram2: Poly

    def __post_init__(self):
        if self.ram1 == self.ram2:
            raise InvalidInput("ramified primes must be distinct")
        require_monic_irreducible(self.ram1, "ram1")
        require_monic_irreducible(self.ram2, "ram2")

    @property
    def q(self):
        return self.ram1.q


def place_behavior(l, K):
    """Behavior of the finite place l in K: ramified if l divides the radical,
    split if eps*radical is a square mod l, inert otherwise."""
    if (K.radical % l).is_zero:
        return SplitType.RAMIFIED
    return SplitType.SPLIT if residue_symbol(K.radicand, l) == 1 else SplitType.INERT


def field_splits_quaternion(K, D):
    """K splits D iff neither ramified prime splits in K."""
    return (place_behavior(D.ram1, K) != SplitType.SPLIT
            and place_behavior(D.ram2, K) != SplitType.SPLIT)


def mu_y_obstruction(D, y):
    """True iff every F(sqrt(mu*y)) fails to split D, i.e. for each square
    class mu some ramified prime splits in F(sqrt(mu*y))."""
    if y in (D.ram1, D.ram2):
        raise InvalidInput("y must differ from the ramified primes")
    return not any(field_splits_quaternion(QuadraticField(eps=mu, radical=y), D)
                   for mu in ffield.square_class_reps(D.q))


@dataclass(frozen=True)
class CriterionReport:
    """Hypothesis-by-hypothesis verdict of the non-existence criterion."""

    field_splits: bool
    y_ramified: bool
    ram1_excluded: bool
    ram2_excluded: bool
    mu_obstruction: bool
    failures: tuple = field(default=())

    @property
    def excluded_prime(self):
        if self.ram1_excluded:
            return "ram1"
        if self.ram2_excluded:
            return "ram2"
        return None

    @property
    def ok(self):
        return not self.failures

    def to_dict(self):
        """The JSON-ready `criterion` section of a certificate;
        `dscurves criterion --json` adds the failures."""
        return {
            "field_splits": self.field_splits,
            "y_ramified": self.y_ramified,
            "ram1_excluded": self.ram1_excluded,
            "ram2_excluded": self.ram2_excluded,
            "excluded_prime": self.excluded_prime,
            "mu_obstruction": self.mu_obstruction,
            "ok": self.ok,
        }


_HYPOTHESES = (
    ("field_splits", "K splits the quaternion algebra"),
    ("y_ramified", "y ramifies in K"),
    ("excluded", "some ramified prime lies outside the excluded-prime set of y"),
    ("mu_obstruction", "no F(sqrt(mu*y)) splits the quaternion algebra"),
)


def nonexistence_criterion(D, y, K):
    """Evaluate the four hypotheses forcing the curve to have no K-points.

    Returns a CriterionReport; failures list the hypotheses that do not hold,
    in their stated order.
    """
    require_monic_irreducible(y, "y")
    if y in (D.ram1, D.ram2):
        raise InvalidInput("y must avoid the ramified primes")
    if K.q != D.q or y.q != D.q:
        raise InvalidInput("mismatched field orders")
    splits = field_splits_quaternion(K, D)
    y_ram = place_behavior(y, K) == SplitType.RAMIFIED
    r1_ex = p_excluded(D.ram1, y)
    r2_ex = p_excluded(D.ram2, y)
    mu_ob = mu_y_obstruction(D, y)
    flags = {
        "field_splits": splits,
        "y_ramified": y_ram,
        "excluded": r1_ex or r2_ex,
        "mu_obstruction": mu_ob,
    }
    failures = tuple(desc for key, desc in _HYPOTHESES if not flags[key])
    return CriterionReport(field_splits=splits, y_ramified=y_ram,
                           ram1_excluded=r1_ex, ram2_excluded=r2_ex,
                           mu_obstruction=mu_ob, failures=failures)
