import itertools
import random

import pytest

from dscurves import fpoly, localpoints
from dscurves.errors import InvalidInput
from dscurves.fpoly import (Poly, monic_irreducibles, parse_poly,
                            polys_of_degree_at_most, residue_symbol, valuation)
from dscurves.localpoints import (LocalWitness, fast_m_bound, lambda_cutoff,
                                  lambda_set, local_all,
                                  witness_cutoff, witness_ok, witness_search)
from dscurves.splitting import QuadraticField, QuaternionData

from oracles import window_Ds


def table_D(q, ptxt, stxt):
    return QuaternionData(ram1=parse_poly(ptxt, q), ram2=parse_poly(stxt, q))


def table_K(q, D, eps=1):
    return QuadraticField(eps=eps, radical=parse_poly("t", q) * D.ram1 * D.ram2)


def witness_oracle(D, l):
    """The witness search by its definition: every (c, a) in the
    deterministic order (c ascending, a by degree then lex, deg a at most
    deg l // 2), each discriminant a^2 - 4c*l checked by the exact rule
    that `witness_ok` applies."""
    q = D.q
    for c in range(1, q):
        cl4 = 4 * c * l
        for a in polys_of_degree_at_most(q, l.degree // 2):
            if localpoints._nonsplit_disc(D, a * a - cl4):
                return LocalWitness(l=l, a=a, c=c)
    return None


def test_witness_ok_checks_all_conditions():
    q = 3
    D = table_D(q, "t^3+t^2+t+2", "t+1")
    l = parse_poly("t", q)
    w = witness_search(D, l)
    assert w is not None and witness_ok(D, w)
    # degree bound on a
    bad = LocalWitness(l=l, a=parse_poly("t^2", q), c=w.c)
    assert not witness_ok(D, bad)
    # c must be a unit
    assert not witness_ok(D, LocalWitness(l=l, a=w.a, c=0))


@pytest.mark.parametrize("q, ptxt, stxt", [
    (3, "t^3+t^2+t+2", "t+1"), (3, "t^4+t^3+2t+1", "t^2+1"),
    (5, "t^3+t^2+4t+1", "t+2"), (7, "t^3+2", "t+3")])
def test_witness_ok_matches_the_exact_rule(q, ptxt, stxt):
    # witness_ok reads both symbols from the residue tables and takes a
    # valuation only where one is 0; it must agree with _nonsplit_disc on
    # every place l of degree <= 4, a with 2 deg a <= deg l and 0 < c < q.
    # a and -a give one discriminant, which the oracle reads once and
    # witness_ok reads with a, from the tables the searches of D leave, and
    # with -a, from tables built cold for each place.  Zero symbols with
    # even and with odd valuations both occur
    D = table_D(q, ptxt, stxt)
    cases, parities = [], set()
    for l in lambda_set(D, 4):
        for a in polys_of_degree_at_most(q, l.degree // 2):
            if a.leading_coeff > q // 2:
                continue
            for c in range(1, q):
                disc = a * a - 4 * c * l
                for r in (D.ram1, D.ram2):
                    if len(parities) < 2 and (disc % r).is_zero:
                        parities.add(valuation(disc, r) % 2)
                cases.append((l, a, c, localpoints._nonsplit_disc(D, disc)))
    assert parities == {0, 1}
    local_searches(D)
    for l, a, c, want in cases:
        assert witness_ok(D, LocalWitness(l=l, a=a, c=c)) == want, (l, a, c)
    cold = None
    for l, a, c, want in cases:
        if l != cold:
            localpoints._residues.cache_clear()
            cold = l
        assert witness_ok(D, LocalWitness(l=l, a=-a, c=c)) == want, (l, a, c)


def test_witness_search_is_deterministic_first_hit():
    q = 3
    D = table_D(q, "t^3+t^2+t+2", "t+1")
    l = parse_poly("t^2+1", q)
    w = witness_search(D, l)
    assert w == witness_search(D, l)
    # nothing earlier in the (c, a) order also works
    if w is not None:
        from dscurves.fpoly import polys_of_degree_at_most
        for c in range(1, w.c + 1):
            for a in polys_of_degree_at_most(q, l.degree // 2):
                cand = LocalWitness(l=l, a=a, c=c)
                if (c, a.sort_key()) < (w.c, w.a.sort_key()):
                    assert not witness_ok(D, cand)


def test_witness_search_rejects_ramified_prime():
    q = 3
    D = table_D(q, "t^3+t^2+t+2", "t+1")
    with pytest.raises(InvalidInput):
        witness_search(D, D.ram1)
    # a multiple of a ramified prime has no unit -4c*l mod that prime
    with pytest.raises(InvalidInput):
        witness_search(D, D.ram2 * parse_poly("t", q))


def test_local_ramified_prime_table_case():
    q = 3
    D = table_D(q, "t^3+t^2+t+2", "t+1")
    report = local_all(D, table_K(q, D))
    assert report.ram1_ok and report.ram2_ok
    # both primes ramify in K, so both need a mu-witness
    assert report.ram1_mu is not None and report.ram2_mu is not None


def test_lambda_cutoff_and_set():
    q = 3
    D = table_D(q, "t^3+t^2+t+2", "t+1")
    assert lambda_cutoff(D) == 6
    ls = lambda_set(D, max_degree=2)
    assert D.ram1 not in ls and D.ram2 not in ls
    assert [l.degree for l in ls] == sorted(l.degree for l in ls)


def test_fast_m_bound_table_case():
    q = 3
    D = table_D(q, "t^3+t^2+t+2", "t+1")
    m = fast_m_bound(D)
    assert m is not None
    assert 0 <= m <= D.ram1.degree + D.ram2.degree - 2


def m_bound_oracle(D):
    """The m-bound by its definition: every b of degree below
    deg(ram1 * ram2) coprime to both primes, a in degree order, and each
    symbol from residue_symbol."""
    q = D.q
    p1, p2 = D.ram1, D.ram2
    worst = 0
    for b in polys_of_degree_at_most(q, p1.degree + p2.degree - 1):
        if b.is_zero or (b % p1).is_zero or (b % p2).is_zero:
            continue
        for a in polys_of_degree_at_most(q, p1.degree + p2.degree - 2):
            d = a * a - b
            if residue_symbol(d, p1) == -1 and residue_symbol(d, p2) == -1:
                worst = max(worst, max(a.degree, 0))
                break
        else:
            return None
    return worst


TABLE = [(3, "t^3+t^2+t+2", "t+1"), (3, "t^4+t^3+2t+1", "t^2+1"),
         (3, "t^5+2t+1", "t+2"), (5, "t^3+t^2+4t+1", "t+2"),
         (5, "t^4+2", "t^2+t+1"), (7, "t^3+2", "t+3")]


def random_Ds(q, count, rng):
    """count distinct-prime pairs with deg ram1 <= 3 and deg ram2 <= 2."""
    pool1 = [p for d in (1, 2, 3) for p in monic_irreducibles(q, d)]
    pool2 = [p for d in (1, 2) for p in monic_irreducibles(q, d)]
    out = []
    while len(out) < count:
        p, s = rng.choice(pool1), rng.choice(pool2)
        if p != s:
            out.append(QuaternionData(ram1=p, ram2=s))
    return out


def test_fast_m_bound_matches_oracle():
    rng = random.Random(5)
    # the table pairs, a pair with no uniform bound, and random pairs
    Ds = [table_D(*row) for row in TABLE] + [table_D(3, "t^2+1", "t+2")]
    for q in (3, 5, 7):
        Ds += random_Ds(q, 6, rng)
    ms = [fast_m_bound(D) for D in Ds]
    assert ms == [m_bound_oracle(D) for D in Ds]
    assert None in ms
    # every pair of the q = 7 window deg ram1 <= 2, deg ram2 <= 1
    window = window_Ds(7, 2, 1)
    window_ms = [fast_m_bound(D) for D in window]
    assert window_ms == [m_bound_oracle(D) for D in window]
    assert len(window) == 189 and window_ms.count(None) == 42


def test_fast_m_bound_above_the_old_table_cap():
    # q^9 = 19683 residues mod ram1, above the size at which an older
    # residue_symbol stopped tabulating squares: fast_m_bound still reads
    # every symbol at ram1 from ram1's table of squares
    D = table_D(3, "t^9+t^7+2t^6+1", "t+1")
    assert fast_m_bound(D) == 4


def local_searches(D):
    """m and every witness up to the witness cutoff, with fast_m_bound's
    own cache passed by, so each call reads the residue tables."""
    m = fast_m_bound.__wrapped__(D)
    return m, [witness_search(D, l) for l in lambda_set(D, witness_cutoff(D, m))]


@pytest.mark.parametrize("q, max_deg1, max_deg2", [(3, 4, 2), (5, 3, 1)])
def test_warm_tables_give_what_cold_tables_give(q, max_deg1, max_deg2):
    # in candidate order a table outlives its D: ram1 plays P and then S
    # when its partner's degree passes its own, and an earlier D may have
    # extended P's a^2 further than S's masks.  m and the witnesses must be
    # those of tables built for D alone
    Ds = window_Ds(q, max_deg1, max_deg2)
    localpoints._residues.cache_clear()
    warm = [local_searches(D) for D in Ds]
    for D, got in zip(Ds, warm):
        localpoints._residues.cache_clear()
        assert local_searches(D) == got, D


def test_ram1_table_is_built_once_across_its_partners():
    # ram1 = t^2+1 meets partners of degree 1, 2 and 3, playing P and S
    q = 3
    ram1 = parse_poly("t^2+1", q)
    partners = [s for d in (1, 2, 3) for s in monic_irreducibles(q, d)
                if s != ram1]
    localpoints._residues.cache_clear()
    for s in partners:
        local_searches(QuaternionData(ram1=ram1, ram2=s))
    assert localpoints._residues.cache_info().misses == 1 + len(partners)


def test_local_all_known_triples_fast_rows():
    for q, ptxt, stxt in [(3, "t^3+t^2+t+2", "t+1"),
                          (3, "t^4+t^3+2t+1", "t^2+1"),
                          (3, "t^5+2t+1", "t+2")]:
        D = table_D(q, ptxt, stxt)
        K = table_K(q, D)
        report = local_all(D, K)
        assert report.ok
        assert report.infinity_ok and report.ram1_ok and report.ram2_ok
        assert not report.unwitnessed
        assert report.witness_cutoff <= report.lambda_cutoff
        covered = {w.l for w in report.witnesses}
        for l in lambda_set(D, max_degree=report.witness_cutoff):
            assert l in covered
        for w in report.witnesses:
            assert witness_ok(D, w)


def test_local_all_rejects_nonsplitting_field():
    q = 3
    D = table_D(q, "t^3+t^2+t+2", "t+1")
    # a field in which ram2 = t+1 splits cannot split D
    for r in monic_irreducibles(q, 2):
        K = QuadraticField(eps=1, radical=r)
        if residue_symbol(K.radicand, D.ram2) == 1:
            with pytest.raises(InvalidInput):
                local_all(D, K)
            break
    else:
        pytest.skip("no splitting radical of degree 2")


def test_candidates_follow_the_enumeration_order():
    # the tables keep the candidates they square, in coeff_tuples order, and
    # witness_search reads a candidate by its index in them
    for q in (3, 5, 7):
        order = list(fpoly.coeff_tuples(q, 3))
        table = localpoints._Residues(monic_irreducibles(q, 2)[0])
        table.extend(q ** 4)
        assert table.candidates == order
        assert [a.coeffs for a in polys_of_degree_at_most(q, 3)] == order
        assert list(itertools.islice(fpoly.coeff_tuples(q), q ** 4)) == order


def test_packed_reduction_matches_poly_remainder():
    # for every prime r of degree <= 3: random int coefficient lists up to
    # degree 20, twice the lambda_cutoff of two such primes, reduced and
    # scaled, and random squares, against Poly's remainder packed slot by
    # slot, coefficient k in bits k * width and up
    rng = random.Random(7)
    for q in (3, 5, 7, 11):
        for r in (r for d in (1, 2, 3) for r in monic_irreducibles(q, d)):
            table = localpoints._Residues(r)

            def packed(f):
                return sum(c << (k * table.width) for k, c in enumerate((f % r).coeffs))

            for _ in range(4):
                cs = [rng.randrange(-q * q, q * q) for _ in range(rng.randrange(22))]
                scale = rng.randrange(-q, q)
                assert table.reduce(cs, scale) == packed(scale * Poly(q, cs)), (r, cs)
                a = Poly(q, [rng.randrange(q) for _ in range(rng.randrange(11))])
                assert table.square(a.coeffs) == packed(a * a)


def test_table_squares_are_the_squares_of_every_unit():
    # the primes of the six table triples and the degree-9 prime at q = 3
    # that sits near the pair limit
    primes = [(3, "t^3+t^2+t+2"), (3, "t+1"), (3, "t^4+t^3+2t+1"),
              (3, "t^2+1"), (3, "t^5+2t+1"), (3, "t+2"), (5, "t^3+t^2+4t+1"),
              (5, "t+2"), (5, "t^4+2"), (5, "t^2+t+1"), (7, "t^3+2"),
              (7, "t+3"), (3, "t^9+t^7+2t^6+1")]
    for q, text in primes:
        p = parse_poly(text, q)
        table = localpoints._Residues(p)
        want = {table.reduce(((a * a) % p).coeffs)
                for a in polys_of_degree_at_most(q, p.degree - 1) if a}
        assert table.squares == want, (q, text)
        assert len(want) == (q ** p.degree - 1) // 2


def sieve_degree(q):
    """The largest d with q^d within the sieve's limit."""
    d = 1
    while q ** (d + 1) <= fpoly._MAX_SIEVE:
        d += 1
    return d


@pytest.mark.parametrize("q, max_deg1, max_deg2", [(3, 4, 2), (5, 3, 1), (7, 2, 1)])
def test_witness_search_matches_oracle_on_windows(q, max_deg1, max_deg2):
    # every place up to the witness cutoff of every pair of the window
    for D in window_Ds(q, max_deg1, max_deg2):
        for l in lambda_set(D, witness_cutoff(D, fast_m_bound(D))):
            assert witness_search(D, l) == witness_oracle(D, l), (D, l)


def test_witness_search_matches_oracle_on_table_pairs():
    # every place up to lambda_cutoff, or the sieve's limit below it
    for row in TABLE:
        D = table_D(*row)
        for l in lambda_set(D, min(lambda_cutoff(D), sieve_degree(D.q))):
            assert witness_search(D, l) == witness_oracle(D, l), (D, l)


def test_places_above_twice_m_have_witnesses():
    # the lemma layer a certificate trusts: a VALID certificate records
    # witnesses up to degree 2m only, since the uniform bound m discharges
    # the places of degree 2m + 1 up to lambda_cutoff.  Check that every
    # such place has a witness anyway, up to the sieve's limit
    for row in TABLE:
        D = table_D(*row)
        m = fast_m_bound(D)
        assert m is not None
        top = min(lambda_cutoff(D), sieve_degree(D.q))
        places = [l for l in lambda_set(D, top) if l.degree > 2 * m]
        assert places
        assert all(witness_search(D, l) is not None for l in places), row


@pytest.mark.parametrize("q, max_deg1, max_deg2, pairs, places",
                         [(3, 3, 2, 54, 35784), (5, 2, 1, 50, 9500)])
def test_places_above_twice_m_have_witnesses_on_windows(q, max_deg1, max_deg2,
                                                        pairs, places):
    # the same lemma layer for every pair of a small window that has an m;
    # larger windows (q = 7 (2, 1), q = 3 (4, 2), q = 5 (3, 1)) pass as well
    # but take 8 to 63 s
    checked = []
    for D in window_Ds(q, max_deg1, max_deg2):
        m = fast_m_bound(D)
        if m is None:
            continue
        top = min(lambda_cutoff(D), sieve_degree(D.q))
        above = [l for l in lambda_set(D, top) if l.degree > 2 * m]
        assert all(witness_search(D, l) is not None for l in above), D
        checked.append(len(above))
    assert (len(checked), sum(checked)) == (pairs, places)


@pytest.mark.parametrize("q, max_deg1, max_deg2, pairs, with_m, places",
                         [(3, 2, 1, 15, 0, 4728), (5, 1, 1, 20, 0, 16280),
                          (3, 2, 2, 30, 6, 28848)])
def test_places_past_lambda_cutoff_have_witnesses(q, max_deg1, max_deg2,
                                                  pairs, with_m, places):
    # evidence for the constant of the degree-bound lemma, not a proof: a
    # certificate records no witness above lambda_cutoff, since the lemma
    # gives every place of larger degree local points.  Check the places 1
    # to 3 degrees past it, up to the sieve's limit, for every pair of three
    # small windows.  No pair of the first two has an m, so their
    # certificates stop at lambda_cutoff exactly; six of the third do
    checked = []
    for D in window_Ds(q, max_deg1, max_deg2):
        cutoff = lambda_cutoff(D)
        past = [l for l in lambda_set(D, min(cutoff + 3, sieve_degree(q)))
                if l.degree > cutoff]
        assert all(witness_search(D, l) is not None for l in past), D
        checked.append((len(past), fast_m_bound(D) is not None))
    assert (len(checked), sum(m for _, m in checked),
            sum(n for n, _ in checked)) == (pairs, with_m, places)
