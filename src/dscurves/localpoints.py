"""Local-point battery: existence of points on the curve at every completion
of K, with explicit witnesses.

The three place classes are handled separately: infinity passes unless it
splits in K, the two ramified primes need a square-class witness, and the
other finite places discriminant witnesses (a, c) for x^2 - a*x + c*l.
Places of large degree need no witness (degree-bound lemma), and a uniform
bound m, when one exists, discharges every place of degree >= 2m + 1 so
explicit searches stop at degree 2m.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

from . import ffield
from .errors import InvalidInput
from .fpoly import (Poly, format_poly, monic_irreducibles,
                    polys_of_degree_at_most, residue_symbol, square_residues,
                    valuation)
from .splitting import (QuadraticField, SplitType, field_splits_quaternion,
                        place_behavior)
from .weil import nonsquare_at_infinity


@dataclass(frozen=True)
class LocalWitness:
    """Witness (a, c) that x^2 - a*x + c*l is non-split at ram1, ram2 and
    infinity, certifying points above l."""

    l: Poly
    a: Poly
    c: int


def _nonsplit_disc(D, disc):
    """True iff a quadratic with discriminant disc is non-split at infinity,
    ram1 and ram2: the witness rule shared by `witness_ok` and
    `witness_search`."""
    if not nonsquare_at_infinity(disc):
        return False
    for r in (D.ram1, D.ram2):
        symbol = residue_symbol(disc, r)
        # symbol +1 means r does not divide disc: valuation 0, so split
        if symbol == 1 or (symbol == 0 and valuation(disc, r) % 2 == 0):
            return False
    return True


def witness_ok(D, w):
    """Re-check every witness invariant; no search involved.  c must be a
    reduced unit, 0 < c < q, as `witness_search` writes it."""
    if 2 * w.a.degree > w.l.degree:
        return False
    if not 0 < w.c < D.q:
        return False
    return _nonsplit_disc(D, w.a * w.a - 4 * w.c * w.l)


def mu_witness_ok(D, which, mu):
    """True iff mu is a reduced unit, 0 < mu < q, with neither the other
    ramified prime nor infinity split in F(sqrt(mu*r)), r the prime named
    by `which`."""
    if which not in ("ram1", "ram2"):
        raise InvalidInput("which must be 'ram1' or 'ram2'")
    r, s = (D.ram1, D.ram2) if which == "ram1" else (D.ram2, D.ram1)
    if not 0 < mu < D.q:
        return False
    aux = QuadraticField(eps=mu, radical=r)
    return (place_behavior(s, aux) != SplitType.SPLIT
            and nonsquare_at_infinity(aux.radicand))


def ramified_mu(D, which):
    """First square class mu passing `mu_witness_ok`, or None."""
    for mu in ffield.square_class_reps(D.q):
        if mu_witness_ok(D, which, mu):
            return mu
    return None


def _local_ramified_prime(D, K, which, recorded):
    """(ok, mu-witness or None) above the ramified prime r named by `which`:
    K splits D, so r is inert in K and needs nothing, or ramified."""
    if place_behavior(getattr(D, which), K) == SplitType.INERT:
        return True, None
    if recorded is None:
        mu = ramified_mu(D, which)
    else:
        mu = getattr(recorded, which + "_mu")
        if mu is not None and not mu_witness_ok(D, which, mu):
            mu = None
    return mu is not None, mu


def lambda_cutoff(D):
    """Largest degree at which a place can still need an explicit witness."""
    return 2 * (D.ram1.degree + D.ram2.degree) - 2


def witness_cutoff(D, m):
    """Largest degree needing an explicit witness when the uniform bound is
    m (None when no bound exists)."""
    cutoff = lambda_cutoff(D)
    return cutoff if m is None else min(2 * m, cutoff)


def lambda_set(D, max_degree):
    """Monic irreducibles other than the ramified primes up to max_degree,
    ordered by degree then lexicographically."""
    out = []
    for deg in range(1, max_degree + 1):
        for l in monic_irreducibles(D.q, deg):
            if l != D.ram1 and l != D.ram2:
                out.append(l)
    return out


def witness_search(D, l):
    """First witness in the deterministic order (c ascending, a by degree
    then lex); None when the bounded search space is exhausted."""
    if l in (D.ram1, D.ram2):
        raise InvalidInput("l must differ from the ramified primes")
    q = D.q
    half = l.degree // 2
    for c in range(1, q):
        cl4 = 4 * c * l
        for a in polys_of_degree_at_most(q, half):
            if _nonsplit_disc(D, a * a - cl4):
                return LocalWitness(l=l, a=a, c=c)
    return None


def _nonsquare_mask(x, units, squares):
    """Bitmask over units: bit j is set iff x + units[j] is a nonzero
    non-square, read from `squares`, the `square_residues` of the modulus."""
    mask = 0
    for j, u in enumerate(units):
        d = x + u
        if d and d.coeffs not in squares:
            mask |= 1 << j
    return mask


@lru_cache(maxsize=None)
def fast_m_bound(D):
    """Least m <= deg(ram1)+deg(ram2)-2 such that every b coprime to both
    primes with deg(b) <= deg(ram1)+deg(ram2)-1 admits a with deg(a) <= m and
    both symbols (a^2-b / ram_i) = -1; None if no m works.

    When m exists, witnesses are only needed for places of degree <= 2m.

    By CRT those b are exactly the pairs (b1, b2) of nonzero residues mod
    ram1 and mod ram2, and the symbol at ram_i depends only on b_i; -b_i
    runs over the units as b_i does, so a pair is a pair of units (r, s)
    and a covers it iff a^2 + r and a^2 + s are nonzero non-squares.

    Call p the prime with more units and s the other.  The candidates a
    are built one degree level at a time, in enumeration order, and each
    keeps a^2 mod p and a bitmask over the units of s: bit j is set iff
    a^2 + (unit j) is a nonzero non-square mod s.  For each unit r of p,
    `pending` holds the units of s not yet covered; a scan of the
    candidates tests r's symbol only for an a whose mask meets `pending`,
    then clears those bits.  The first a to clear a bit is the least a in
    enumeration order, so of least degree, covering that pair: m is the
    highest level a pair needed.  A level is built only when a scan has
    used up the levels built so far, and m is None once a scan uses up
    level deg(ram1)+deg(ram2)-2.
    """
    q = D.q
    p, s = ((D.ram1, D.ram2) if D.ram1.degree >= D.ram2.degree
            else (D.ram2, D.ram1))
    sq_p, sq_s = square_residues(p), square_residues(s)
    units_p = [r for r in polys_of_degree_at_most(q, p.degree - 1) if r]
    units_s = [r for r in polys_of_degree_at_most(q, s.degree - 1) if r]
    top = p.degree + s.degree - 2
    polys = polys_of_degree_at_most(q, top)
    masks = {}  # a^2 mod s -> mask over units_s
    cands = []  # (level, a^2 mod p, mask), in enumeration order
    level = -1
    worst = 0
    for r in units_p:
        pending = (1 << len(units_s)) - 1
        i = 0
        while pending:
            if i == len(cands):
                if level == top:
                    return None
                level += 1
                # level 0 is zero and the constants, level k the q^k*(q-1)
                # polynomials of degree k
                for a in itertools.islice(polys, (q - 1) * q ** level if level else q):
                    a2 = a * a
                    a2s = a2 % s
                    if a2s not in masks:
                        masks[a2s] = _nonsquare_mask(a2s, units_s, sq_s)
                    cands.append((level, a2 % p, masks[a2s]))
            adeg, a2p, bits = cands[i]
            i += 1
            if pending & bits:
                d = a2p + r
                if d and d.coeffs not in sq_p:
                    worst = max(worst, adeg)
                    pending &= ~bits
    return worst


@dataclass(frozen=True)
class LocalReport:
    """Aggregate local verdict with all witnesses, fixed-order and seed-free
    so that two runs are byte-identical."""

    infinity_ok: bool
    ram1_ok: bool
    ram1_mu: int | None
    ram2_ok: bool
    ram2_mu: int | None
    lambda_cutoff: int
    witness_cutoff: int
    fast_m: int | None
    witnesses: tuple
    unwitnessed: tuple

    @property
    def ok(self):
        return (self.infinity_ok and self.ram1_ok and self.ram2_ok
                and not self.unwitnessed)

    def to_dict(self):
        """The JSON-ready `local` section shared by certificates and
        `dscurves local --json`."""
        return {
            "infinity_ok": self.infinity_ok,
            "ram1_ok": self.ram1_ok, "ram1_mu": self.ram1_mu,
            "ram2_ok": self.ram2_ok, "ram2_mu": self.ram2_mu,
            "lambda_cutoff": self.lambda_cutoff,
            "witness_cutoff": self.witness_cutoff,
            "fast_m": self.fast_m,
            "witnesses": [{"l": format_poly(w.l), "a": format_poly(w.a), "c": w.c}
                          for w in self.witnesses],
            "unwitnessed": [format_poly(l) for l in self.unwitnessed],
            "ok": self.ok,
        }


def local_all(D, K, recorded=None):
    """Run the whole battery for a K that splits D.

    Infinity passes unless it splits in K: a conservative rule, failing
    whatever the degrees of the ramified primes, in a case that no
    certificate's K reaches (see `hasse_certificate`).

    Places above the witness cutoff are discharged by the degree-bound lemma
    (beyond lambda_cutoff) or by the uniform bound m (between 2m+1 and the
    cutoff); everything below gets an explicit witness or lands in
    `unwitnessed`.

    Given a `recorded` LocalReport (read from a certificate), nothing is
    searched: each ramified prime and each place keeps its recorded mu or
    witness when the rule accepts it, so the report states what the
    recorded witnesses establish.  Only its mu and witnesses are read.
    """
    if not field_splits_quaternion(K, D):
        raise InvalidInput("K does not split the quaternion algebra")
    infinity_ok = nonsquare_at_infinity(K.radicand)
    ram1_ok, ram1_mu = _local_ramified_prime(D, K, "ram1", recorded)
    ram2_ok, ram2_mu = _local_ramified_prime(D, K, "ram2", recorded)
    m = fast_m_bound(D)
    wit_cutoff = witness_cutoff(D, m)
    if recorded is not None:
        by_place = {w.l: w for w in recorded.witnesses}
    witnesses, unwitnessed = [], []
    for l in lambda_set(D, max_degree=wit_cutoff):
        if recorded is None:
            w = witness_search(D, l)
        else:
            w = by_place.get(l)
            if w is not None and not witness_ok(D, w):
                w = None
        if w is None:
            unwitnessed.append(l)
        else:
            witnesses.append(w)
    return LocalReport(infinity_ok=infinity_ok,
                       ram1_ok=ram1_ok, ram1_mu=ram1_mu,
                       ram2_ok=ram2_ok, ram2_mu=ram2_mu,
                       lambda_cutoff=lambda_cutoff(D), witness_cutoff=wit_cutoff,
                       fast_m=m, witnesses=tuple(witnesses),
                       unwitnessed=tuple(unwitnessed))
