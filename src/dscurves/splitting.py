"""Quadratic extensions of F_q(t), the quaternion splitting rule and the
global non-existence criterion for d = 2.

A quadratic extension K = F(sqrt(eps * radical)) is described by a unit eps
and a monic square-free radical.  A quaternion division algebra split at
infinity is described purely by its two finite ramified primes.  One
predicate, `splits_quaternion(D, x)`, decides whether F(sqrt(x)) splits D;
the criterion asks it of x = the radicand of K and of x = mu*y, and the
local battery of x = mu*r and of the discriminants a^2 - 4c*l, adding
infinity.
"""

from dataclasses import dataclass

from . import ffield
from .errors import InvalidInput
from .fpoly import (Poly, format_poly, is_squarefree, power_exceeds,
                    require_monic_irreducible, residue_symbol, valuation)
from .weil import p_excluded


# largest degree of K's radical, read before its square-free test, which is
# Euclid's algorithm, quadratic in the degree.  Measured `is_squarefree` of
# a dense monic radical on CPython 3.11, one core of a 2-vCPU machine:
# degree 1100 takes 0.07 s at q = 3 and 0.27 s at q = 3037000493, 8000
# takes 4.5 s at q = 3.  No certificate meets it: its radical y * ram1 *
# ram2 * n_poly has degree at most 7 + 10 + 1000 = 1017, at q = 3
_MAX_RADICAL_DEGREE = 1100


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
        if self.radical.degree > _MAX_RADICAL_DEGREE:
            raise InvalidInput("radical has degree %d, above %d"
                               % (self.radical.degree, _MAX_RADICAL_DEGREE))
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


# largest q^(deg ram1 + deg ram2) accepted: about the number of residue
# pairs fast_m_bound covers, and of the squares it tabulates.  Measured
# fast_m_bound cold, its tables built afresh, on CPython 3.11, one core of
# a 2-vCPU machine, medians of three runs taken twice, at 0.8-2.5e-6 s per
# pair, two thirds of it the units and squares of the larger prime: 3^10
# (t^9+t^7+2t^6+1, t+1) takes 0.12-0.13 s, 5^7 (t^6+2t^5+3, t+2) 0.09-0.10
# s.  Refused: 7^6 (t^5+t^4+4, t+3, 0.09-0.10 s) and 3^11
# (t^10+t^8+t^7+2t^6+2, t+1, 0.37-0.44 s).  The limit stays, since raising
# it would admit new inputs
_MAX_RESIDUE_PAIRS = 10 ** 5


def check_pair_count(q, deg1, deg2):
    """InvalidInput unless q^(deg1 + deg2) is at most _MAX_RESIDUE_PAIRS,
    for ramified primes of degrees deg1 and deg2.  It reads degrees only,
    so it answers at once, before any prime is known to be irreducible."""
    if power_exceeds(q, max(deg1 + deg2, 0), _MAX_RESIDUE_PAIRS):
        raise InvalidInput("q^(deg ram1 + deg ram2) exceeds %d at q = %d, "
                           "degrees %d and %d"
                           % (_MAX_RESIDUE_PAIRS, q, deg1, deg2))


@dataclass(frozen=True)
class QuaternionData:
    """Quaternion division algebra over F_q(t), split at infinity, ramified
    exactly at the distinct Primes ram1 and ram2 over one F_q.  The pair
    bound, read from degrees, comes before the irreducibility tests."""

    ram1: Poly
    ram2: Poly

    def __post_init__(self):
        if self.ram1.q != self.ram2.q:
            raise InvalidInput("mismatched field orders")
        check_pair_count(self.ram1.q, self.ram1.degree, self.ram2.degree)
        if self.ram1 == self.ram2:
            raise InvalidInput("ramified primes must be distinct")
        for name, f in (("ram1", self.ram1), ("ram2", self.ram2)):
            object.__setattr__(self, name, require_monic_irreducible(f, name))

    @property
    def q(self):
        return self.ram1.q


def splits_quaternion(D, x):
    """True iff F(sqrt(x)) splits D, x nonzero: neither ramified prime r
    splits in it.  r splits when x is a nonzero square mod r, and is
    counted as split when r divides x to an even power, since the unit
    part x / r^v is not read: a conservative rule.  An odd power ramifies
    r, and a non-square mod r leaves it inert."""
    for r in (D.ram1, D.ram2):
        symbol = residue_symbol(x, r)
        if symbol == 1 or (symbol == 0 and valuation(x, r) % 2 == 0):
            return False
    return True


def mu_y_obstruction(D, y):
    """True iff no F(sqrt(mu*y)), mu a square class, splits D."""
    return not any(splits_quaternion(D, mu * y)
                   for mu in ffield.square_class_reps(D.q))


# the criterion's four hypotheses, in their stated order
_HYPOTHESES = (
    "K splits the quaternion algebra",
    "y ramifies in K",
    "some ramified prime lies outside the excluded-prime set of y",
    "no F(sqrt(mu*y)) splits the quaternion algebra",
)


@dataclass(frozen=True)
class CriterionReport:
    """Hypothesis-by-hypothesis verdict of the non-existence criterion."""

    field_splits: bool
    y_ramified: bool
    ram1_excluded: bool
    ram2_excluded: bool
    mu_obstruction: bool

    @property
    def excluded_prime(self):
        if self.ram1_excluded:
            return "ram1"
        if self.ram2_excluded:
            return "ram2"
        return None

    @property
    def failures(self):
        """The hypotheses that do not hold, in their stated order."""
        holds = (self.field_splits, self.y_ramified,
                 self.ram1_excluded or self.ram2_excluded, self.mu_obstruction)
        return tuple(h for h, ok in zip(_HYPOTHESES, holds) if not ok)

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


def nonexistence_criterion(D, y, K):
    """Evaluate the four hypotheses forcing the curve to have no K-points.

    Returns a CriterionReport, whose failures list the hypotheses that do
    not hold, in their stated order.  The excluded-prime tests come before
    any residue symbol: `dset(y)` refuses a y beyond its norm bound, then a
    y that is not a monic irreducible.  K's radical is square-free, so a
    ramified prime divides the radicand at most once and the even case of
    `splits_quaternion` never arises here.
    """
    if K.q != D.q or y.q != D.q:
        raise InvalidInput("mismatched field orders")
    if y in (D.ram1, D.ram2):
        raise InvalidInput("y must differ from the ramified primes")
    r1_ex = p_excluded(D.ram1, y)
    r2_ex = p_excluded(D.ram2, y)
    return CriterionReport(field_splits=splits_quaternion(D, K.radicand),
                           y_ramified=(K.radical % y).is_zero,
                           ram1_excluded=r1_ex, ram2_excluded=r2_ex,
                           mu_obstruction=mu_y_obstruction(D, y))
