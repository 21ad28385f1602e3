import itertools
import operator
import pickle
import random
import time

import pytest
import sympy

from dscurves import fpoly, localpoints, weil
from dscurves.errors import FieldMismatch, InvalidInput, ParseError
from dscurves.fpoly import (Poly, Prime, factor, format_poly, is_irreducible,
                            is_squarefree, monic_irreducibles, parse_poly,
                            poly_gcd, polys_of_degree_at_most, powmod,
                            require_monic_irreducible, residue_symbol,
                            valuation)
from dscurves.splitting import (QuadraticField, QuaternionData,
                                nonexistence_criterion)
from oracles import gauss_irreducible_count

X = sympy.Symbol("x")


def to_sympy(f):
    return sympy.Poly(list(reversed(f.coeffs)) or [0], X, modulus=f.q)


def from_sympy(p, q):
    cs = [int(c) % q for c in reversed(p.all_coeffs())]
    return Poly(q, tuple(cs))


def random_poly(q, maxdeg, rng, nonzero=False):
    while True:
        deg = rng.randrange(maxdeg + 1)
        cs = [rng.randrange(q) for _ in range(deg + 1)]
        f = Poly(q, tuple(cs))
        if not (nonzero and f.is_zero):
            return f


# ---------------------------------------------------------------------------
# core arithmetic


def test_ring_axioms_random():
    rng = random.Random(1)
    for q in (3, 5, 7):
        for _ in range(100):
            f = random_poly(q, 8, rng)
            g = random_poly(q, 8, rng)
            h = random_poly(q, 8, rng)
            assert f + g == g + f
            assert f * g == g * f
            assert (f + g) * h == f * h + g * h
            assert f - f == Poly.zero(q)


def test_mul_matches_sympy_random():
    rng = random.Random(2)
    for q in (3, 5):
        for _ in range(50):
            f = random_poly(q, 12, rng)
            g = random_poly(q, 12, rng)
            if f.is_zero or g.is_zero:
                assert (f * g).is_zero
                continue
            want = from_sympy(to_sympy(f) * to_sympy(g), q)
            assert f * g == want


def random_coeffs(q, n, rng):
    """n coefficients whose first and last are nonzero."""
    if n == 1:
        return [rng.randrange(1, q)]
    return ([rng.randrange(1, q)] + [rng.randrange(q) for _ in range(n - 2)]
            + [rng.randrange(1, q)])


def schoolbook(a, b, q):
    """The product of two coefficient tuples, term by term."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return tuple(c % q for c in out)


def slot_width(n, m, q):
    """How `_mul_coeffs` forms a product of n and m coefficients, both
    factors with a nonzero constant coefficient: "schoolbook", a Kronecker
    slot of 1, 2, 4 or 8 bytes, or "wide".  A slot must hold
    min(n, m) * (q-1)^2, the largest sum of products it receives."""
    if n * m <= fpoly._SCHOOLBOOK_MAX:
        return "schoolbook"
    bound = min(n, m) * (q - 1) ** 2
    return next((w for w in (1, 2, 4, 8) if bound < 256 ** w), "wide")


def test_large_mul_matches_schoolbook():
    # the in-test schoolbook oracle against both sides of the crossover (a
    # product of lengths at the cut and one above it, thin or square), a
    # thin factor times a long one, squares and a long product, at field
    # orders that land in every slot width: q = 3037000493 puts (q-1)^2
    # just below 2^63, and 1099511627689 is the largest prime
    # validate_field_order accepts.  The constant coefficients are nonzero,
    # so no low zeros are split off and each case takes the path that
    # `slot_width` names
    rng = random.Random(3)
    cut = fpoly._SCHOOLBOOK_MAX
    sizes = ((1, cut), (1, cut + 1), (2, cut // 2), (2, cut // 2 + 1), (5, 6),
             (6, 6), (2, 60), (60, 60), (2, 4600), (200, 200), (300, None))
    assert 5 * 6 <= cut < 6 * 6

    cases = [(q, n, m) for q in (3, 7, 1009, 65537, 3037000493, 1099511627689)
             for n, m in sizes] + [(7, 1500, 1500)]
    widths = set()
    for q, n, m in cases:
        f = Poly(q, random_coeffs(q, n, rng))
        g = f if m is None else Poly(q, random_coeffs(q, m, rng))
        slow = schoolbook(f.coeffs, g.coeffs, q)
        assert (f * g).coeffs == slow == (g * f).coeffs, (q, n, m)
        widths.add(slot_width(len(f.coeffs), len(g.coeffs), q))
    assert widths == {"schoolbook", 1, 2, 4, 8, "wide"}


def test_mul_splits_off_low_zeros():
    # (t^i*a')(t^j*b') = t^(i+j)*(a'*b'): a monomial times a polynomial
    # either way round, and both factors shifted, with the shifted parts on
    # both sides of the crossover, against the term-by-term product
    rng = random.Random(17)
    cut = fpoly._SCHOOLBOOK_MAX
    for q in (3, 7, 3037000493):
        for i, j in ((0, 1), (1, 0), (1, 1), (3, 7), (40, 2), (2304, 0)):
            for n, m in ((1, 1), (1, 5), (1, cut + 1), (3, 4), (6, 6), (2, 60),
                         (60, 60)):
                a = (0,) * i + tuple(random_coeffs(q, n, rng))
                b = (0,) * j + tuple(random_coeffs(q, m, rng))
                want = schoolbook(a, b, q)
                assert (Poly(q, a) * Poly(q, b)).coeffs == want, (q, i, j, n, m)
                assert (Poly(q, b) * Poly(q, a)).coeffs == want, (q, i, j, n, m)
    t = Poly.t(3)
    assert (t ** 2304).coeffs == (0,) * 2304 + (1,)
    assert (t ** 5 * t ** 7) == t ** 12


def test_linear_kernels_match_per_coefficient_oracle():
    # +, -, unary - and int * Poly against coefficient-wise arithmetic:
    # unequal lengths both ways, equal lengths that cancel to zero or to a
    # lower degree, and the zero polynomial
    rng = random.Random(9)

    def oracle(op, a, b, q):
        n = max(len(a), len(b))
        cs = [op(x, y) % q for x, y in zip(a + [0] * (n - len(a)),
                                           b + [0] * (n - len(b)))]
        while cs and cs[-1] == 0:
            cs.pop()
        return tuple(cs)

    for q in (3, 7, 3037000493):
        def rand(n):
            return [rng.randrange(q) for _ in range(n - 1)] + [rng.randrange(1, q)]

        f = rand(8)
        neg_f = [-c % q for c in f]
        pairs = [([], []), ([], rand(5)), (rand(5), []), (rand(3), rand(9)),
                 (rand(9), rand(3)), (rand(6), rand(6)), (f, f), (f, neg_f),
                 (f, rand(4) + f[4:]), (f, rand(4) + neg_f[4:])]
        for a, b in pairs:
            fa, fb = Poly(q, a), Poly(q, b)
            assert (fa + fb).coeffs == oracle(operator.add, a, b, q), (q, a, b)
            assert (fa - fb).coeffs == oracle(operator.sub, a, b, q), (q, a, b)
            assert (-fa).coeffs == oracle(operator.sub, [], a, q), (q, a)
            for c in (0, 1, 2, q - 1, q + 2, -1):
                want = oracle(operator.mul, a, [c] * len(a), q)
                assert (c * fa).coeffs == want == (fa * c).coeffs, (q, a, c)
        assert (Poly(q, f) - Poly(q, f)).is_zero
        assert (Poly(q, f) + Poly(q, neg_f)).is_zero
        assert (Poly(q, f) - Poly(q, rand(4) + f[4:])).degree < 4
        assert (Poly(q, f) + Poly(q, rand(4) + neg_f[4:])).degree < 4


def test_divmod_invariant_random():
    rng = random.Random(4)
    for q in (3, 5, 7):
        for _ in range(100):
            f = random_poly(q, 15, rng)
            g = random_poly(q, 6, rng, nonzero=True)
            quot, rem = divmod(f, g)
            assert quot * g + rem == f
            assert rem.degree < g.degree


def test_divide_by_zero():
    with pytest.raises(ZeroDivisionError):
        divmod(Poly.t(3), Poly.zero(3))


def test_powmod_matches_repeated_mul():
    rng = random.Random(5)
    q = 5
    m = parse_poly("t^3+t+1", q)
    for _ in range(20):
        f = random_poly(q, 2, rng)
        e = rng.randrange(1, 30)
        acc = Poly.one(q)
        for _ in range(e):
            acc = (acc * f) % m
        assert powmod(f, e, m) == acc


def test_gcd_matches_sympy():
    rng = random.Random(6)
    for q in (3, 5):
        for _ in range(50):
            f = random_poly(q, 10, rng, nonzero=True)
            g = random_poly(q, 10, rng, nonzero=True)
            got = poly_gcd(f, g)
            want = from_sympy(sympy.gcd(to_sympy(f), to_sympy(g)), q)
            assert got == want.monic()


def test_derivative_and_evaluate():
    q = 5
    f = parse_poly("t^3+2t+4", q)
    assert f.derivative() == parse_poly("3t^2+2", q)


# ---------------------------------------------------------------------------
# irreducibility, enumeration, factorization


def test_is_irreducible_matches_sympy():
    rng = random.Random(7)
    for q in (3, 5):
        # every monic polynomial of degree <= 4, then random ones up to 7
        monics = [f for f in polys_of_degree_at_most(q, 4)
                  if f.degree >= 1 and f.is_monic]
        randoms = [random_poly(q, 7, rng, nonzero=True) for _ in range(80)]
        for f in monics + [f for f in randoms if f.degree >= 1]:
            want = to_sympy(f.monic()).is_irreducible
            assert is_irreducible(f) == want, (q, f)


def test_gauss_counts():
    # full check at q=3, partial at larger q (enumeration cost grows as q^n)
    for q, maxdeg in ((3, 8), (5, 6), (7, 4)):
        for n in range(1, maxdeg + 1):
            assert len(monic_irreducibles(q, n)) == gauss_irreducible_count(q, n)


def test_monic_irreducibles_sieve_matches_ben_or():
    # the sieve against Ben-Or on every monic polynomial, in the same order
    for q, maxdeg in ((3, 8), (5, 5), (7, 4), (11, 3)):
        for n in range(1, maxdeg + 1):
            monics = (Poly(q, low + (1,))
                      for low in itertools.product(range(q), repeat=n))
            want = [f for f in monics if is_irreducible(f)]
            assert list(monic_irreducibles(q, n)) == want, (q, n)


def test_the_sieve_yields_primes():
    for q, n in ((3, 1), (3, 4), (5, 2), (7, 1)):
        assert all(type(p) is Prime for p in monic_irreducibles(q, n))


def test_require_monic_irreducible_proves_once(monkeypatch):
    calls = []
    distinct_degree = fpoly._distinct_degree

    def counted(f):
        calls.append(f)
        return distinct_degree(f)

    monkeypatch.setattr(fpoly, "_distinct_degree", counted)
    f = parse_poly("t^3+t^2+t+2", 3)
    p = require_monic_irreducible(f, "p")
    assert type(p) is Prime and p == f and len(calls) == 1
    # a Prime comes back as it is, with no test
    assert require_monic_irreducible(p, "p") is p
    sieved = monic_irreducibles(3, 5)[0]
    assert require_monic_irreducible(sieved, "p") is sieved
    assert len(calls) == 1


def test_no_public_path_makes_a_prime_of_a_reducible():
    # t^2 + 2 = (t + 1)(t + 2) at q = 3
    q, cs = 3, (2, 0, 1)
    for make in (lambda: Prime(q, cs), lambda: Prime(q, list(cs)),
                 lambda: Prime.constant(q, 2), lambda: Prime.one(q),
                 lambda: Prime.zero(q), lambda: Prime.t(q)):
        with pytest.raises(TypeError):
            make()
    f = parse_poly("t^2+2", q)
    assert type(f) is Poly
    with pytest.raises(InvalidInput, match="must be a monic irreducible"):
        require_monic_irreducible(f, "p")
    assert all(p != f for p in monic_irreducibles(q, 2))


def test_arithmetic_on_primes_gives_plain_polys():
    a, b = monic_irreducibles(3, 1)[1:]  # t + 1 and t + 2
    assert type(a * b) is Poly and a * b == parse_poly("t^2+2", 3)
    for value in (a + b, a - b, -a, 2 * a, a ** 2, divmod(a * b, a)[0]):
        assert type(value) is Poly


def test_polys_and_primes_survive_a_pickle():
    for f in (Poly.zero(3), parse_poly("2t^4+t+1", 5), monic_irreducibles(7, 2)[3],
              require_monic_irreducible(parse_poly("t^5+2t+1", 3), "p")):
        back = pickle.loads(pickle.dumps(f))
        assert type(back) is type(f) and back == f and back.q == f.q


def test_monic_irreducibles_refuses_a_huge_sieve():
    # 3^40 slots are refused from the degree alone, before any allocation
    start = time.perf_counter()
    with pytest.raises(InvalidInput):
        monic_irreducibles(3, 40)
    assert time.perf_counter() - start < 1


def test_enumeration_order_is_lexicographic():
    polys = list(polys_of_degree_at_most(3, 2))
    assert polys[0].is_zero
    keys = [p.sort_key() for p in polys]
    assert keys == sorted(keys)
    assert len(polys) == 3 ** 3
    irr = monic_irreducibles(3, 2)
    ik = [p.sort_key() for p in irr]
    assert ik == sorted(ik)


def test_factor_round_trip_random():
    rng = random.Random(8)
    for q in (3, 5, 7):
        for _ in range(60):
            f = random_poly(q, 20, rng, nonzero=True)
            fac = factor(f, seed=rng.randrange(10 ** 6))
            assert fac.product(q) == f
            for p, _ in fac.factors:
                assert p.is_monic and is_irreducible(p)


def test_factor_matches_sympy_multiset():
    rng = random.Random(9)
    for q in (3, 5):
        for _ in range(30):
            f = random_poly(q, 12, rng, nonzero=True)
            if f.degree < 1:
                continue
            got = sorted((p.coeffs, e) for p, e in factor(f).factors)
            # Poly.factor_list, not sympy.factor_list: the latter sorts
            # ModularInteger factors, a deprecated comparison
            _, slist = to_sympy(f).factor_list()
            want = sorted((from_sympy(p.monic(), q).coeffs, e) for p, e in slist)
            assert got == want


def test_factor_handles_perfect_powers():
    q = 3
    p = parse_poly("t+1", q)
    f = p * p * p * p * p * p  # p^6 = (p^2)^3, exercises the char-p branch
    fac = factor(f)
    assert fac.factors == ((p, 6),)


def test_is_squarefree():
    q = 3
    p = parse_poly("t^2+1", q)
    assert is_squarefree(p)
    assert not is_squarefree(p * p)


def test_factor_is_deterministic_given_seed():
    q = 5
    f = parse_poly("t^6+t^4+2t^2+3", q)
    assert factor(f, seed=42) == factor(f, seed=42)


def test_library_refusals():
    # refusals that no CLI input reaches: the CLI only builds Polys over
    # one field, with exponents, moduli and degrees of its own choosing
    q = 3
    f = parse_poly("t^2+1", q)
    with pytest.raises(AttributeError, match="immutable"):
        f.q = 5
    with pytest.raises(TypeError, match="expected Poly"):
        f + 1
    with pytest.raises(FieldMismatch):
        f + Poly.one(5)
    assert (Poly.one(q) == 1) is False
    assert repr(f) == "Poly(q=3, t^2+1)"
    assert repr(monic_irreducibles(q, 2)[0]) == "Prime(q=3, t^2+1)"
    with pytest.raises(InvalidInput, match="non-negative integer exponent"):
        f ** -1
    with pytest.raises(InvalidInput, match="powmod modulus"):
        powmod(f, 2, Poly.constant(q, 2))
    with pytest.raises(InvalidInput, match="constants"):
        is_irreducible(Poly.constant(q, 2))
    with pytest.raises(InvalidInput, match="degree must be >= 1"):
        monic_irreducibles(q, 0)
    with pytest.raises(InvalidInput, match="zero polynomial"):
        factor(Poly.zero(q))
    with pytest.raises(InvalidInput, match="undefined at 0"):
        is_squarefree(Poly.zero(q))
    assert parse_poly("[]", q) == Poly.zero(q)
    with pytest.raises(InvalidInput, match="d must be >= 1"):
        weil.lq(q, 0)
    D = QuaternionData(ram1=parse_poly("t^3+t^2+t+2", q), ram2=parse_poly("t+1", q))
    K = QuadraticField(eps=1, radical=parse_poly("t^5+t^4+t^3+t^2+2t", q))
    with pytest.raises(InvalidInput, match="mismatched field orders"):
        nonexistence_criterion(D, parse_poly("t", 5), K)


# ---------------------------------------------------------------------------
# residue symbol


def test_residue_symbol_exhaustive_square_oracle():
    # acceptance 6(a): deg p <= 3, q in {3, 5}
    for q in (3, 5):
        for deg in (1, 2, 3):
            for p in monic_irreducibles(q, deg):
                squares = {((a * a) % p).coeffs
                           for a in polys_of_degree_at_most(q, deg - 1)
                           if not (a % p).is_zero}
                for a in polys_of_degree_at_most(q, deg):
                    r = a % p
                    want = 0 if r.is_zero else (1 if r.coeffs in squares else -1)
                    assert residue_symbol(a, p) == want


def test_residue_symbol_matches_euler_criterion():
    # random irreducible p on both sides of q^deg p = 8192, where an older
    # symbol switched from a square table to Euler's criterion, and for each
    # a random a of degree up to 2 deg p + 1 (most not monic), a multiple of
    # p, a nonzero constant and a scalar multiple of p + 1, each also mod the
    # non-monic c * p
    rng = random.Random(12)
    cases = ([(3, d) for d in range(1, 10)] + [(5, d) for d in range(1, 6)]
             + [(7, d) for d in range(1, 5)] + [(1000003, 1), (1000003, 2)])
    for q, deg in cases:
        for _ in range(8):
            while True:
                p = Poly(q, [rng.randrange(q) for _ in range(deg)] + [1])
                if is_irreducible(p):
                    break
            c = rng.randrange(2, q)
            inputs = [random_poly(q, 2 * deg + 1, rng),
                      p * random_poly(q, 3, rng, nonzero=True),
                      Poly.constant(q, rng.randrange(1, q)),
                      (p + Poly.one(q)) * c]
            for a in inputs:
                r = a % p
                if r.is_zero:
                    want = 0
                else:
                    s = powmod(r, (q ** deg - 1) // 2, p)
                    assert s in (Poly.one(q), Poly.constant(q, q - 1))
                    want = 1 if s == Poly.one(q) else -1
                assert residue_symbol(a, p) == want, (q, a, p)
                assert residue_symbol(a, p * c) == want, (q, a, p, c)


def test_residue_symbol_builds_no_square_table():
    # the symbol is one reciprocity loop: only the local battery builds
    # tables of squares
    rng = random.Random(13)
    localpoints._residues.cache_clear()
    for i in range(30):
        p = rng.choice(monic_irreducibles(3, 3 + i % 5))
        residue_symbol(random_poly(3, 2 * p.degree, rng, nonzero=True), p)
    assert localpoints._residues.cache_info().misses == 0


def test_quadratic_reciprocity_random():
    # (f/g)(g/f) = (-1)^{deg f * deg g * (q-1)/2} for distinct monic irreducibles
    rng = random.Random(10)
    for q in (3, 5, 7):
        pool = [p for d in (1, 2, 3) for p in monic_irreducibles(q, d)]
        checked = 0
        while checked < 170:
            f, g = rng.sample(pool, 2)
            sign = (-1) ** (f.degree * g.degree * ((q - 1) // 2))
            assert residue_symbol(f, g) * residue_symbol(g, f) == sign
            checked += 1


def test_valuation():
    q = 3
    p = parse_poly("t+1", q)
    f = p * p * parse_poly("t^2+1", q)
    assert valuation(f, p) == 2
    assert valuation(f, parse_poly("t+2", q)) == 0
    with pytest.raises(InvalidInput):
        valuation(Poly.zero(q), p)


# ---------------------------------------------------------------------------
# parsing and formatting


def test_parse_format_round_trip():
    rng = random.Random(11)
    for q in (3, 5, 7):
        for _ in range(100):
            deg = rng.randrange(9)
            f = Poly(q, tuple(rng.randrange(q) for _ in range(deg + 1)))
            assert parse_poly(format_poly(f), q) == f


def test_parse_variants():
    q = 5
    f = parse_poly("t^3 + 2*t + 4", q)
    assert f == parse_poly("t^3+2t+4", q)
    assert parse_poly("[4,2,0,1]", q) == f
    assert parse_poly("-t", q) == parse_poly("4t", q)
    assert parse_poly("0", q) == Poly.zero(q)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse_poly("t^", 3)
    with pytest.raises(ParseError) as err:
        parse_poly("5t+1", 3)
    assert err.value.position is not None


def test_parse_rejects_huge_numerals_before_allocating():
    # an exponent allocates one coefficient per degree, and int() refuses
    # numerals of more than 4300 digits: both fail as ParseError, at once
    nines = "9" * 5000
    for text in ("t^1000000000", "t^4000000", "t^" + nines, nines + "t",
                 nines, "[" + nines + "]", "[-" + nines + "]", "1+t^" + nines):
        with pytest.raises(ParseError) as err:
            parse_poly(text, 3)
        assert err.value.position is not None
    assert parse_poly("t^100000", 3).degree == 100000
    assert parse_poly("[002, -2, 0]", 3) == parse_poly("t+2", 3)


def test_format_is_canonical_descending():
    q = 3
    assert format_poly(parse_poly("1+t+t^2", q)) == "t^2+t+1"
    assert format_poly(Poly.zero(q)) == "0"
    assert format_poly(Poly.constant(q, 2)) == "2"
