import math
import random

import pytest
import sympy

from dscurves import fpoly
from dscurves.errors import InvalidInput
from dscurves.fpoly import Poly, factor, monic_irreducibles, parse_poly
from dscurves.weil import (_ladder_powers, _lucas_trace, check_norm_degree,
                           dset, enumerate_weil, exponent_n, lq,
                           nonsquare_at_infinity, norm_statuses, p_excluded,
                           pset)
from oracles import (ModulusMismatch, QuadExtElem, ext_mul, ext_pow,
                     frobenius_test_element, norm, pi_power_trace)

X, T = sympy.symbols("x T")


def random_elem(w, rng, maxdeg=20):
    q = w.q
    u = Poly(q, tuple(rng.randrange(q) for _ in range(rng.randrange(maxdeg) + 1)))
    v = Poly(q, tuple(rng.randrange(q) for _ in range(rng.randrange(maxdeg) + 1)))
    return QuadExtElem(u=u, v=v, modulus=w)


# ---------------------------------------------------------------------------
# exponents


def test_lq_matches_direct_lcm():
    for q in (3, 5, 7):
        for d in range(1, 7):
            want = math.lcm(*[q ** i - 1 for i in range(1, d + 1)])
            assert lq(q, d) == want


def test_exponent_identity_d2():
    for q in (3, 5, 7):
        n = exponent_n(q, 2)
        assert n == (q * q - 1) ** 2
        assert n == lq(q, 2) ** 2 * 4 // math.gcd(4, q * q - 1)


def test_exponent_rejects_degree_one():
    with pytest.raises(InvalidInput):
        exponent_n(3, 1)


# ---------------------------------------------------------------------------
# enumeration


def test_nonsquare_at_infinity():
    q = 3
    assert not nonsquare_at_infinity(Poly.zero(q))
    assert nonsquare_at_infinity(parse_poly("t", q))          # odd degree
    assert nonsquare_at_infinity(parse_poly("2t^2+1", q))     # lc non-square
    assert not nonsquare_at_infinity(parse_poly("t^2+1", q))  # lc square


def test_enumerate_weil_q3_t():
    y = parse_poly("t", 3)
    ws = enumerate_weil(y)
    assert len(ws) == 6
    for w in ws:
        assert w.a1.degree <= y.degree // 2
        assert 1 <= w.mu < 3
        assert nonsquare_at_infinity(w.discriminant)


def test_enumerate_weil_counts_small():
    # deg y = 1: disc = a1^2 - 4*mu*y always has odd degree 1, so every
    # (a1, mu) pair with deg a1 <= 0 qualifies: q * (q-1) candidates
    for q in (3, 5, 7):
        y = parse_poly("t", q)
        assert len(enumerate_weil(y)) == q * (q - 1)


def test_enumerate_weil_rejects_reducible():
    with pytest.raises(InvalidInput):
        enumerate_weil(parse_poly("t^2+2t+1", 3))


# ---------------------------------------------------------------------------
# quadratic-extension arithmetic


def test_ext_mul_commutes_and_distributes():
    rng = random.Random(20)
    y = parse_poly("t", 5)
    for w in enumerate_weil(y)[:4]:
        a = random_elem(w, rng)
        b = random_elem(w, rng)
        assert ext_mul(a, b) == ext_mul(b, a)


def test_ext_mul_rejects_mixed_moduli():
    y = parse_poly("t", 3)
    w1, w2 = enumerate_weil(y)[:2]
    a = QuadExtElem(u=Poly.one(3), v=Poly.one(3), modulus=w1)
    b = QuadExtElem(u=Poly.one(3), v=Poly.one(3), modulus=w2)
    with pytest.raises(ModulusMismatch):
        ext_mul(a, b)


def test_minimal_polynomial_annihilation():
    # substituting pi into X^2 + a1 X + mu*y gives zero
    for q in (3, 5, 7):
        y = parse_poly("t", q)
        for w in enumerate_weil(y):
            pi = QuadExtElem(u=Poly.zero(q), v=Poly.one(q), modulus=w)
            sq = ext_mul(pi, pi)
            val_u = sq.u + w.const_term
            val_v = sq.v + w.a1
            assert val_u.is_zero and val_v.is_zero


def test_norm_multiplicativity_random():
    rng = random.Random(21)
    y = parse_poly("t", 5)
    ws = enumerate_weil(y)
    for _ in range(250):
        w = rng.choice(ws)
        a = random_elem(w, rng)
        b = random_elem(w, rng)
        assert norm(ext_mul(a, b)) == norm(a) * norm(b)


def test_norm_matches_resultant_oracle():
    # norm(u + v*pi) = Res_X(M(X), u(T) + v(T) X) for monic quadratic M
    rng = random.Random(22)
    q = 3
    y = parse_poly("t", q)
    ws = enumerate_weil(y)

    def lift(f):
        return sum(int(c) * T ** i for i, c in enumerate(f.coeffs))

    for _ in range(25):
        w = rng.choice(ws)
        a = random_elem(w, rng, maxdeg=6)
        M = X ** 2 + lift(w.a1) * X + lift(w.const_term)
        lin = lift(a.u) + lift(a.v) * X
        res = sympy.resultant(sympy.Poly(M, X), sympy.Poly(lin, X))
        res_poly = sympy.Poly(sympy.expand(res), T, modulus=q)
        cs = [int(c) % q for c in reversed(res_poly.all_coeffs())]
        assert norm(a) == Poly(q, tuple(cs))


def test_ext_pow_matches_repeated_mul():
    rng = random.Random(23)
    y = parse_poly("t", 3)
    w = enumerate_weil(y)[2]
    a = random_elem(w, rng, maxdeg=4)
    acc = QuadExtElem(u=Poly.one(3), v=Poly.zero(3), modulus=w)
    for e in range(8):
        assert ext_pow(a, e) == acc
        acc = ext_mul(acc, a)


def test_frobenius_element_degree_bound():
    for q in (3, 5):
        y = parse_poly("t", q)
        n = exponent_n(q, 2)
        for w in enumerate_weil(y)[:3]:
            e = frobenius_test_element(w)
            bound = n * y.degree + y.degree
            assert max(e.u.degree, e.v.degree) <= bound


# ---------------------------------------------------------------------------
# norm set and excluded primes


# (q, y) for the dset checks below: every q of the paper's table, with
# deg y up to 3 at q = 3, 2 at q = 5 and 1 at q = 7 (the most the norm
# bound admits at q = 5 and 7)
NORM_CASES = ((3, "t"), (3, "t^2+1"), (3, "t^3+2t+1"), (5, "t"), (5, "t^2+2"),
              (7, "t"))


def test_dset_orbit_norms_match_per_entry_oracle():
    # dset computes one trace of pi^n per orbit (c*a1, c^2*mu), by the Lucas
    # ladder or, when a1 = 0, as 2*y^(n/2), and each entry's norm derives
    # from it; the oracles compute every entry's norm of pi^(2n) - y^n and
    # trace 2u - a1*v of pi^n = u + v*pi on their own, by square-and-multiply
    # in A[pi].  A degree-6 y at q = 3 adds the largest norms of the cases
    for q, ytxt in NORM_CASES + ((3, "t^6+t+2"),):
        y = parse_poly(ytxt, q)
        n = exponent_n(q, 2)
        entries = dset(y)
        assert [e.source for e in entries] == list(enumerate_weil(y))
        for entry in entries:
            assert entry.value == norm(frobenius_test_element(entry.source))
            assert entry.trace == pi_power_trace(entry.source, n)


@pytest.mark.parametrize("q, ytxt", [(3, "t"), (5, "t"), (7, "t"), (3, "t^2+1")])
def test_lucas_trace_mod_p_is_the_trace_mod_p(q, ytxt):
    # reduction mod p is a ring map, so the ladder in A/p gives V mod p: for
    # every orbit, a1 = 0 too, and every monic irreducible p of degree <= 3,
    # y itself included
    y = parse_poly(ytxt, q)
    orbits = dict.fromkeys(entry.orbit for entry in dset(y))
    for p in (p for d in (1, 2, 3) for p in monic_irreducibles(q, d)):
        steps = _ladder_powers(y, exponent_n(q, 2), p)
        for orbit in orbits:
            assert _lucas_trace(orbit.source, steps, p) == orbit.trace % p, (
                p, orbit.source)


def fold(f, m):
    """f mod t^m - t: t^e = t^(e-m+1) for e >= m.  Every monic irreducible
    of degree d divides t^(q^d) - t, so fold(f, q^d) % p = f % p."""
    cs = list(f.coeffs)
    for e in range(len(cs) - 1, m - 1, -1):
        cs[e - m + 1] += cs[e]
    return Poly(f.q, cs[:m])


def assert_statuses_match_reduction(y, primes):
    """norm_statuses(p, y), read from the trace, against the reduction of
    each distinct nonzero norm mod p."""
    entries = dset(y)
    values = {e.value for e in entries if not e.is_zero}
    folded = {}
    for p in primes:
        if p == y:
            continue
        key = y.q ** p.degree
        if key not in folded:
            folded[key] = {v: fold(v, key) for v in values}
            # the fold itself, against the direct reduction, once per degree
            assert all(folded[key][v] % p == v % p for v in values)
        divides = {v for v in values if (folded[key][v] % p).is_zero}
        statuses = list(norm_statuses(p, y))
        assert [e for e, _ in statuses] == list(entries)
        for entry, status in statuses:
            want = ("zero norm" if entry.is_zero
                    else "divides" if entry.value in divides else "coprime")
            assert status == want, (y, p, entry.source)


@pytest.mark.parametrize("q, max_deg_p", [(3, 4), (5, 4), (7, 3)])
def test_trace_status_matches_norm_reduction(q, max_deg_p):
    # every y of degree <= 2 that dset's norm bound admits, and every monic
    # irreducible p != y up to max_deg_p, plus at q = 7 a seeded sample of
    # degree 4.  fold(v, q^deg p) % p is v % p at a fraction of the cost
    ys = [y for d in (1, 2) for y in monic_irreducibles(q, d)]
    primes = [p for d in range(1, max_deg_p + 1) for p in monic_irreducibles(q, d)]
    # y^n mod p takes the exponent 0 at degrees 1 and 2, a powmod above
    assert {1, 2, 3} <= {p.degree for p in primes}
    if q == 7:
        primes += random.Random(7).sample(monic_irreducibles(q, 4), 12)
    admitted = 0
    for y in ys:
        try:
            check_norm_degree(y)
        except InvalidInput:
            continue
        admitted += 1
        assert_statuses_match_reduction(y, primes)
    assert admitted == {3: 3 + 3, 5: 5 + 10, 7: 7}[q]


def test_dset_zero_norm_dichotomy():
    # an entry's norm is zero iff a1 = 0 (proof in dset's docstring), which
    # is how is_zero decides it without the norm
    for q, ytxt in NORM_CASES:
        entries = dset(parse_poly(ytxt, q))
        for entry in entries:
            assert entry.value.is_zero == entry.source.a1.is_zero
        assert any(not e.is_zero for e in entries)


def test_p_excluded_multiplies_only_mod_p(monkeypatch):
    # a cold p_excluded at q = 7, y = t, p = t^3+2 runs its ladder in A/p,
    # so it multiplies nothing longer than 2 deg p - 1 = 5 coefficients:
    # dset builds no trace, and the first read of one builds it, and y^n,
    # of n * deg y + 1 = 2305 coefficients.  Poly.__mul__ looks _mul_coeffs
    # up at each call
    longest = [0]
    mul = fpoly._mul_coeffs

    def recording_mul(a, b, q):
        out = mul(a, b, q)
        longest[0] = max(longest[0], len(out))
        return out

    y, p = parse_poly("t", 7), parse_poly("t^3+2", 7)
    n = exponent_n(7, 2)
    dset.cache_clear()
    monkeypatch.setattr(fpoly, "_mul_coeffs", recording_mul)
    assert p_excluded(p, y)
    assert longest[0] == 2 * p.degree - 1
    entry = next(e for e in dset(y) if not e.is_zero)
    trace = entry.trace
    assert longest[0] == n * y.degree + 1 == 2305
    monkeypatch.undo()
    assert trace == pi_power_trace(entry.source, n)


def test_dset_nonzero_entries_are_not_units():
    for q in (3, 5):
        y = parse_poly("t", q)
        for entry in dset(y):
            if not entry.is_zero:
                assert entry.value.degree >= 1


def test_p_excluded_goldens():
    cases = [
        (3, "t^3+t^2+t+2"), (3, "t^4+t^3+2t+1"), (3, "t^5+2t+1"),
        (5, "t^3+t^2+4t+1"), (5, "t^4+2"),
        (7, "t^3+2"),
    ]
    for q, ptxt in cases:
        y = parse_poly("t", q)
        assert p_excluded(parse_poly(ptxt, q), y)


def test_p_excluded_negative_cases():
    y = parse_poly("t", 3)
    assert not p_excluded(parse_poly("t+1", 3), y)
    assert not p_excluded(parse_poly("t+2", 3), y)


def test_no_prime_of_degree_1_is_excluded():
    # a lemma the criterion rests on (proof in p_excluded's docstring)
    for q, ytxt in NORM_CASES:
        y = parse_poly(ytxt, q)
        for p in monic_irreducibles(q, 1):
            if p != y:
                assert not p_excluded(p, y)


def test_p_excluded_rejects_p_equal_y():
    y = parse_poly("t", 3)
    with pytest.raises(InvalidInput):
        p_excluded(y, y)


def test_pset_consistency():
    y = parse_poly("t", 3)
    ps = pset(y)
    assert parse_poly("t^3+t^2+t+2", 3) not in ps
    keys = [p.sort_key() for p in ps]
    assert keys == sorted(keys)
    # membership cross-check against the direct test
    for p in ps:
        if p != y:
            assert not p_excluded(p, y)


def pset_oracle(y, seed=0):
    """pset by factoring every nonzero entry of dset(y), orbit or not."""
    primes = set()
    for entry in dset(y):
        if not entry.is_zero:
            for f, _ in factor(entry.value, seed=seed).factors:
                primes.add(f)
    return sorted(primes, key=lambda f: f.sort_key())


@pytest.mark.parametrize("ytxt", ["t", "t^2+1"])
def test_pset_factors_each_distinct_norm_once(ytxt):
    y = parse_poly(ytxt, 3)
    assert pset(y) == pset_oracle(y)


def test_pset_deterministic():
    y = parse_poly("t", 3)
    assert pset(y, seed=1) == pset(y, seed=99)
