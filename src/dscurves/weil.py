"""Quadratic Weil polynomials over F_q[t] and the excluded-prime test.

For a monic irreducible y, the admissible quadratics X^2 + a1*X + mu*y
(deg a1 <= deg(y)/2, mu a unit, discriminant a non-square in the completion
at infinity) are the minimal polynomials of the Frobenius classes pi the
non-existence criterion quantifies over.  The key quantity is the trace
V = Tr(pi^n), from which the norm N(pi^(2n) - y^n) in A is read (see
`dset`).  A ramified prime p is "excluded" when it divides none of the
nonzero norms, which V mod p decides; `norm_statuses` reduces mod p first
and runs the Lucas ladder for V in A/p, so it builds no trace or norm.
Nor does `dset`: an orbit's exact trace and norm, of degree up to
n * deg y / 2 and 2n * deg y, are built on first read, for `pset` and
`pcheck --json`.
"""

from dataclasses import dataclass
from functools import cache, cached_property, lru_cache
from math import gcd, lcm

from . import ffield
from .errors import InvalidInput
from .fpoly import (Poly, factor, format_poly, polys_of_degree_at_most,
                    power_exceeds, powmod, require_monic_irreducible)


def lq(q, d):
    """lcm(q^i - 1 for 1 <= i <= d)."""
    ffield.validate_field_order(q)
    if d < 1:
        raise InvalidInput("d must be >= 1")
    return lcm(*(q ** i - 1 for i in range(1, d + 1)))


def exponent_n(q, d):
    """The Frobenius-power exponent lq(d)^2 * d^2 / gcd(d^2, q^2 - 1).

    For d = 2 and odd q this equals (q^2 - 1)^2.
    """
    if d < 2:
        raise InvalidInput("exponent_n needs d >= 2")
    return lq(q, d) ** 2 * (d * d // gcd(d * d, q * q - 1))


def nonsquare_at_infinity(f):
    """True iff f is a non-square in F_q((1/t)): odd degree, or even degree
    with a non-square leading coefficient (odd q).  This is the one rule
    for infinity: it does not split in F(sqrt(f)) iff this holds (ramified
    for odd degree, inert otherwise)."""
    if f.is_zero:
        return False
    if f.degree % 2 == 1:
        return True
    return not ffield.is_square(f.leading_coeff, f.q)


@dataclass(frozen=True)
class WeilPoly:
    """X^2 + a1*X + mu*y, an admissible quadratic for the base prime y."""

    a1: Poly
    mu: int
    y: Poly

    @property
    def q(self):
        return self.y.q

    @property
    def const_term(self):
        return self.mu * self.y

    @property
    def discriminant(self):
        return self.a1 * self.a1 - 4 * self.const_term

    def __str__(self):
        return "X^2 + (%s)X + (%s)" % (format_poly(self.a1), format_poly(self.const_term))


# largest count (q - 1) * q^(deg y // 2 + 1) of pairs (a1, mu) that
# enumerate_weil tests.  Measured `dscurves wset` on CPython 3.11, one core
# of a 2-vCPU machine, at 2e-5 s per pair: q = 307, y = t (93942 pairs)
# takes 2.0 s.  dset's norm bound admits at most about 2000 pairs
_MAX_WEIL_COUNT = 10 ** 5


def check_weil_count(y):
    """InvalidInput unless enumerate_weil(y) tests at most _MAX_WEIL_COUNT
    pairs (a1, mu).  It reads degrees only, so it answers at once at any q."""
    q, k = y.q, y.degree // 2 + 1
    if power_exceeds(q, k, _MAX_WEIL_COUNT, q - 1):
        raise InvalidInput("admissible quadratics for y: more than %d pairs "
                           "(a1, mu) at q = %d, deg y = %d"
                           % (_MAX_WEIL_COUNT, q, y.degree))


def enumerate_weil(y):
    """All admissible quadratics for y (d = 2), grouped by a1 then mu.

    Conjugate roots share a minimal polynomial, so each entry stands for a
    conjugate pair of Weil numbers.
    """
    check_weil_count(y)
    y = require_monic_irreducible(y, "y")
    q = y.q
    out = []
    for a1 in polys_of_degree_at_most(q, y.degree // 2):
        for mu in range(1, q):
            w = WeilPoly(a1=a1, mu=mu, y=y)
            if nonsquare_at_infinity(w.discriminant):
                out.append(w)
    return tuple(out)


class _Orbit:
    """One orbit {(c*a1, c^2*mu) : c in F_q^x} of dset(y): its first
    quadratic, and the trace and norm its entries share (see `dset`), each
    computed on its first read.  `powers()` gives the steps of
    `_ladder_powers` and y^n, computed once for every orbit of dset(y)."""

    def __init__(self, source, powers):
        self.source, self.powers = source, powers

    @cached_property
    def trace(self):
        steps, _ = self.powers()
        if not self.source.a1:
            return 2 * steps[-1][2]  # V = 2*y^(n/2); the last step has k = n/2
        return _lucas_trace(self.source, steps)

    @cached_property
    def value(self):
        _, y_n = self.powers()
        return y_n * (4 * y_n - self.trace * self.trace)


@dataclass(frozen=True)
class NormEntry:
    """One admissible quadratic and its orbit.  The trace V = Tr(pi^n) and
    the norm value = N(pi^(2n) - y^n) = y^n * (4*y^n - V^2) are computed on
    first read, once per orbit; the norm is zero iff a1 = 0 (proofs in
    `dset`)."""

    source: WeilPoly
    orbit: _Orbit

    @property
    def is_zero(self):
        return not self.source.a1

    @property
    def trace(self):
        return self.orbit.trace

    @property
    def value(self):
        return self.orbit.value


# largest total norm degree of dset(y), entries times the degree of each: it
# bounds the traces, of half that degree, and the norms that pset, pcheck
# --json and the tour build on first read, one per orbit; dset and
# norm_statuses build none.  Every trace and norm of dset(y) read cold, on
# CPython 3.11, one core of a 2-vCPU machine: q = 7, y = t (42 * 4608 =
# 193536) 0.008 s, q = 5, y = t^2+2 (230400) 0.014 s, q = 3, y = t^6+t+2
# (124416) 0.017 s.  Refused: q = 7, y = t^2+1 (2.7e6, 0.19 s), q = 11,
# y = t (3.2e6, 0.15 s), deg y = 16 at q = 3 (8.1e7)
_MAX_NORM_TOTAL = 250000


def check_norm_degree(y):
    """InvalidInput unless the traces of dset(y) and their norms are few and
    small enough to compute exactly: at most (q - 1) * q^(deg y // 2 + 1),
    one per (a1, mu), each norm of degree at most 2n * deg y with n =
    (q^2 - 1)^2.  It reads degrees only, so it answers at once at any q."""
    q, k = y.q, y.degree // 2 + 1
    if power_exceeds(q, k, _MAX_NORM_TOTAL,
                     (q - 1) * 2 * exponent_n(q, 2) * y.degree):
        raise InvalidInput("total norm degree of dset(y) exceeds %d at q = %d, "
                           "deg y = %d" % (_MAX_NORM_TOTAL, q, y.degree))


def _reducer(modulus):
    """f -> f mod modulus, or the identity when modulus is None."""
    return (lambda f: f) if modulus is None else (lambda f: f % modulus)


def _ladder_powers(y, n, modulus=None):
    """(bit, k, y^k, y^(k+1)) for each bit of n, high bit first, k the
    value of the bits above it, and y^(k+1) None after the last 1 bit,
    where the ladder only doubles.  With a modulus, every power is reduced
    mod it, so no product is longer than the modulus allows."""
    reduce = _reducer(modulus)
    bits = bin(n)[2:]
    last_one = bits.rindex("1")
    y, yk, steps = reduce(y), Poly.one(y.q), []
    for i, bit in enumerate(map(int, bits)):
        yk1 = reduce(yk * y) if i <= last_one else None
        steps.append((bit, n >> (len(bits) - i), yk, yk1))
        if i + 1 < len(bits):  # the next k is 2k + bit
            yk = reduce(yk * (yk1 if bit else yk))
    return steps


def _lucas_trace(w, steps, modulus=None):
    """V_n = pi^n + pibar^n for the roots of w = X^2 + a1*X + mu*y, by the
    Lucas ladder on P = -a1 and Q = mu*y: from (V_0, V_1) = (2, P), each
    bit of n maps (V_k, V_(k+1)) to (V_(2k), V_(2k+1)) or (V_(2k+1),
    V_(2k+2)) by V_(2k) = V_k^2 - 2*Q^k and V_(2k+1) = V_k*V_(k+1) - P*Q^k,
    and each bit after the last 1 bit V_k to V_(2k) alone.  `steps` are
    those of `_ladder_powers`.

    Reduction A -> A/m is a ring map, so with a modulus m and the steps of
    `_ladder_powers` mod m, the same ladder on P mod m, each value reduced
    mod m, gives V_n mod m."""
    reduce = _reducer(modulus)
    q, mu, p = w.q, w.mu, reduce(-w.a1)
    v, u = Poly.constant(q, 2), p  # V_k, V_(k+1)
    for bit, k, yk, yk1 in steps:
        c = pow(mu, k, q)  # Q^k = c*y^k
        if yk1 is None:
            v = reduce(v * v - 2 * c * yk)
        elif bit:
            v, u = reduce(v * u - c * p * yk), reduce(u * u - 2 * c * mu * yk1)
        else:
            v, u = reduce(v * v - 2 * c * yk), reduce(v * u - c * p * yk)
    return v


@lru_cache(maxsize=None)
def dset(y):
    """One NormEntry per admissible quadratic, in `enumerate_weil` order;
    all-zero iff the excluded-prime set is empty.  It builds no trace and
    no power of y: the entries of an orbit share one `_Orbit`, whose trace
    is computed on its first read, from powers of y shared by every orbit.

    The orbits are {(c*a1, c^2*mu) : c in F_q^x}, and the norms of an orbit
    are equal:
    - if pi is a root of X^2 + a1*X + mu*y, then c*pi is a root of
      X^2 + c*a1*X + c^2*mu*y;
    - the A-algebra isomorphism pi' -> c*pi sends pi'^(2n) - y^n to
      c^(2n)*pi^(2n) - y^n;
    - that equals pi^(2n) - y^n, because (q - 1) | n = (q^2 - 1)^2;
    - so the two norms are equal, and so are the traces below (c^n = 1).
    The discriminant scales by the square c^2, so the orbit stays inside
    `enumerate_weil`.

    The orbit's trace is V = Tr(pi^n) = pi^n + pibar^n, pibar the other
    root, which `_lucas_trace` computes with at most two products per bit
    of n from the y^k along the bits of n; the norm is derived from V and
    y^n:
    - (q - 1) | n, so (pi*pibar)^n = (mu*y)^n = y^n;
    - hence Tr(pi^(2n)) = V^2 - 2*y^n, and
      N(pi^(2n) - y^n) = (pi*pibar)^(2n) - y^n*Tr(pi^(2n)) + y^(2n)
                       = y^n * (4*y^n - V^2).

    An entry is zero iff a1 = 0, and then V = 2*y^(n/2) with no ladder:
    - (if) pi^2 = -mu*y and (q - 1) | n/2 (q + 1 is even), so pi^n =
      (-mu)^(n/2) * y^(n/2) = y^(n/2) = pibar^n, and pi^(2n) = y^n.
    - (only if) The discriminant is a non-square at infinity, so the
      quadratic is irreducible and F(pi) is a field.  A zero norm then
      means pi^(2n) = y^n, so zeta = pi^2/y is a root of unity in F(pi),
      hence a constant of F_q or F_{q^2}.  If zeta is not in F_q, then
      F(pi) = F_{q^2}(t) and zeta*y would be a square there, which is
      false because y is square-free.  So pi^2 = zeta*y lies in F, and
      pi^2 = -a1*pi - mu*y with pi not in F forces a1 = 0.
    """
    check_norm_degree(y)
    q, n = y.q, exponent_n(y.q, 2)

    @cache
    def powers():
        # n is even, so the last step has k = n/2 and y^n = (y^(n/2))^2
        steps = _ladder_powers(y, n)
        return steps, steps[-1][2] * steps[-1][2]

    orbits, entries = {}, []
    for w in enumerate_weil(y):
        orbit = orbits.get((w.a1, w.mu))
        if orbit is None:
            orbit = _Orbit(w, powers)
            for c in range(1, q):
                orbits[c * w.a1, c * c * w.mu % q] = orbit
        entries.append(NormEntry(source=w, orbit=orbit))
    return tuple(entries)


# largest degree of p that norm_statuses accepts.  Ben-Or's test on an
# irreducible of degree 200 takes 0.96 s at q = 3, 1.7 s at q = 5 and 2.3 s
# at q = 7 (CPython 3.11, one core of a 2-vCPU machine).  A ramified prime
# meets the tighter pair bound of QuaternionData first
_MAX_PRIME_DEGREE = 200


def norm_statuses(p, y):
    """Lazily, (entry, status) for each NormEntry of dset(y): status is
    "zero norm", "divides" when p divides the nonzero norm, or "coprime".
    p != y are monic irreducibles, so y^n is a unit mod p, y^(n mod
    (q^deg p - 1)) as (A/p)^x has that order, and p divides y^n * (4*y^n -
    V^2) iff V^2 = 4*y^n mod p.  Both sides are read in A/p, where no
    product is longer than 2 deg p - 1 coefficients: the y^k along the bits
    of n mod p once per call, then V mod p by one ladder mod p per orbit
    (see `_lucas_trace`), whose entries share a status.  No trace or norm
    of dset(y) is built.  p's degree bound comes first, then `dset`'s
    checks of y, so a y that `dset` refuses costs no irreducibility test of
    p."""
    if p.degree > _MAX_PRIME_DEGREE:
        raise InvalidInput("p has degree %d, above %d"
                           % (p.degree, _MAX_PRIME_DEGREE))
    entries = dset(y)
    require_monic_irreducible(p, "p")
    if p == y:
        raise InvalidInput("p must differ from y")
    q, n = y.q, exponent_n(y.q, 2)
    steps = _ladder_powers(y, n, p)
    yn4, statuses = 4 * powmod(y, n % (q ** p.degree - 1), p), {}
    for entry in entries:
        status = "zero norm" if entry.is_zero else statuses.get(entry.orbit)
        if status is None:
            v = _lucas_trace(entry.orbit.source, steps, p)
            status = statuses[entry.orbit] = (
                "divides" if ((v * v - yn4) % p).is_zero else "coprime")
        yield entry, status


def avoids_pset(statuses):
    """True iff no status of `norm_statuses(p, y)` is "divides": p avoids
    P(y).  On the lazy statuses it stops at the first "divides"."""
    return all(status != "divides" for _, status in statuses)


def p_excluded(p, y):
    """True iff p divides no nonzero norm entry for y, i.e. p avoids every
    prime divisor of the norm set.  Stops at the first entry p divides.

    No p of degree 1 is excluded.  Reduce mod p: the norm commutes with
    reduction, so p divides N(pi^(2n) - y^n) iff the norm of its image in
    R = F_q[X]/(X^2 + a1*X + mu*y) is 0.  y is a nonzero constant mod
    p != y, so y^n = 1 since (q - 1) | n, and pi is a unit of R, whose
    norm is mu*y.  R is F_{q^2}, F_q x F_q or F_q[eps]/(eps^2):
    - in the first two every unit u has u^(q^2 - 1) = 1, and
      (q^2 - 1) | 2n, so pi^(2n) - y^n = 0;
    - in the third pi = alpha + eps with alpha in F_q^x, the double root,
      so pi^(2n) - y^n = 2n*alpha^(2n-1)*eps, a multiple of
      eps = pi - alpha, whose norm is the quadratic at alpha: 0.
    So p divides every norm, and every y has a nonzero one (a1 = 1 with
    mu chosen so that 1 - 4*mu*y is a non-square at infinity).
    """
    return avoids_pset(norm_statuses(p, y))


def pset(y, seed=0):
    """The full excluded-prime set: prime divisors of nonzero norm entries,
    deduplicated and sorted.  Each distinct norm is built and factored
    once: the trace determines it, and the entries of an orbit (see `dset`)
    share theirs."""
    primes = set()
    nonzero = {entry.trace: entry for entry in dset(y) if not entry.is_zero}
    for entry in nonzero.values():
        primes.update(f for f, _ in factor(entry.value, seed=seed).factors)
    return sorted(primes, key=lambda f: f.sort_key())
