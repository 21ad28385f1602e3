import pickle

import pytest

from dscurves.errors import InvalidInput
from dscurves.fpoly import (Prime, parse_poly, polys_of_degree_at_most,
                            residue_symbol)
from dscurves.splitting import (QuadraticField, QuaternionData, mu_y_obstruction,
                                nonexistence_criterion, splits_quaternion)
from dscurves.weil import nonsquare_at_infinity

from oracles import window_Ds


def K_of(q, eps, radtxt):
    return QuadraticField(eps=eps, radical=parse_poly(radtxt, q))


def test_quadratic_field_validation():
    with pytest.raises(InvalidInput):
        K_of(3, 1, "2t+1")          # not monic
    with pytest.raises(InvalidInput):
        K_of(3, 1, "t^2+2t+1")      # not square-free
    with pytest.raises(InvalidInput):
        K_of(3, 1, "1")             # constant radical
    with pytest.raises(InvalidInput):
        QuadraticField(eps=0, radical=parse_poly("t", 3))


def test_quaternion_data_validation():
    p = parse_poly("t+1", 3)
    with pytest.raises(InvalidInput):
        QuaternionData(ram1=p, ram2=p)
    with pytest.raises(InvalidInput):
        QuaternionData(ram1=p, ram2=parse_poly("t^2+2t+1", 3))
    # primes over different fields are refused before any other check
    with pytest.raises(InvalidInput, match="mismatched field orders"):
        QuaternionData(ram1=parse_poly("t^3+t^2+t+2", 3), ram2=parse_poly("t+2", 5))
    # a long reducible prime inside the pair bound is quoted as a short
    # excerpt
    text = "t^9+2t^8+2t^7+2t^6+2t^5+2t^4+2t^3+2t^2+2t"
    with pytest.raises(InvalidInput, match="ram1 must be a monic irreducible") as exc:
        QuaternionData(ram1=parse_poly(text, 3), ram2=p)
    assert text not in str(exc.value) and len(str(exc.value)) < 200
    # one of degree 301 is refused by the pair bound, from degrees alone
    with pytest.raises(InvalidInput, match=r"q\^\(deg ram1 \+ deg ram2\) exceeds"):
        QuaternionData(ram1=p * parse_poly("t^300+t+2", 3), ram2=parse_poly("t", 3))


def test_quaternion_data_keeps_its_primes_through_a_pickle():
    D = QuaternionData(ram1=parse_poly("t^3+t^2+t+2", 3), ram2=parse_poly("t+1", 3))
    back = pickle.loads(pickle.dumps(D))
    assert type(back) is QuaternionData and back == D
    assert type(back.ram1) is Prime and type(back.ram2) is Prime


def square_roots(x, r):
    """The number of z mod r with z^2 = x, by brute force."""
    return sum(1 for z in polys_of_degree_at_most(r.q, r.degree - 1)
               if ((z * z - x) % r).is_zero)


def splits_oracle(D, x):
    """`splits_quaternion` from its definition, with no residue symbol: r
    counts as split when r divides x to an even power v, and for v = 0
    when x has two square roots mod r."""
    for r in (D.ram1, D.ram2):
        unit, v = x, 0
        while (unit % r).is_zero:
            unit, v = unit // r, v + 1
        if v % 2 == 0 and (v > 0 or square_roots(unit, r) == 2):
            return False
    return True


@pytest.mark.parametrize("q, max_deg1, max_deg2", [(3, 2, 1), (5, 1, 1)])
def test_splits_quaternion_matches_root_count_oracle(q, max_deg1, max_deg2):
    # x, x*r and x*r^2 for each ramified prime r run all three branches:
    # a nonzero residue, an odd valuation and an even one
    xs = [x for x in polys_of_degree_at_most(q, 2) if x]
    seen = set()
    for D in window_Ds(q, max_deg1, max_deg2):
        for x in xs:
            for r in (D.ram1, D.ram2):
                for k in range(3):
                    xr = x * r ** k
                    got = splits_quaternion(D, xr)
                    assert got == splits_oracle(D, xr), (D, xr)
                    seen.add((k, got))
    assert seen == {(k, got) for k in range(3) for got in (True, False)}


def test_infinity_behavior():
    # infinity does not split in K iff the radicand is a non-square there
    q = 3
    assert nonsquare_at_infinity(K_of(q, 1, "t").radicand)  # ramified
    # even degree: leading coefficient of eps*radical decides
    assert not nonsquare_at_infinity(K_of(q, 1, "t^2+1").radicand)  # split
    assert nonsquare_at_infinity(K_of(q, 2, "t^2+1").radicand)  # inert


def test_field_splits_quaternion_table_case():
    q = 3
    D = QuaternionData(ram1=parse_poly("t^3+t^2+t+2", q),
                       ram2=parse_poly("t+1", q))
    # radical = y * ram1 * ram2 ramifies both primes, so K splits D
    rad = parse_poly("t", q) * D.ram1 * D.ram2
    K = QuadraticField(eps=1, radical=rad)
    assert splits_quaternion(D, K.radicand)
    # a field where ram2 splits does not split D
    K2 = K_of(q, 1, "t^2+t+2")
    if (residue_symbol(K2.radicand, D.ram1) == 1
            or residue_symbol(K2.radicand, D.ram2) == 1):
        assert not splits_quaternion(D, K2.radicand)


def test_mu_y_obstruction_known_triples():
    for q, ptxt, stxt in [(3, "t^3+t^2+t+2", "t+1"),
                          (5, "t^3+t^2+4t+1", "t+2"),
                          (7, "t^3+2", "t+3")]:
        D = QuaternionData(ram1=parse_poly(ptxt, q), ram2=parse_poly(stxt, q))
        assert mu_y_obstruction(D, parse_poly("t", q))


def test_nonexistence_criterion_table_case():
    q = 3
    y = parse_poly("t", q)
    D = QuaternionData(ram1=parse_poly("t^3+t^2+t+2", q),
                       ram2=parse_poly("t+1", q))
    K = QuadraticField(eps=1, radical=y * D.ram1 * D.ram2)
    report = nonexistence_criterion(D, y, K)
    assert report.ok
    assert report.field_splits and report.y_ramified
    assert report.ram1_excluded and not report.ram2_excluded
    assert report.excluded_prime == "ram1"
    assert report.mu_obstruction
    assert report.failures == ()


def test_nonexistence_criterion_reports_failures_in_order():
    q = 3
    y = parse_poly("t", q)
    D = QuaternionData(ram1=parse_poly("t+1", q), ram2=parse_poly("t+2", q))
    # radical omits y, so hypothesis 2 (y ramified) fails
    K = QuadraticField(eps=1, radical=D.ram1 * D.ram2 * parse_poly("t^2+1", q))
    report = nonexistence_criterion(D, y, K)
    assert not report.ok
    assert report.failures
    assert not report.y_ramified


def test_criterion_rejects_bad_y():
    q = 3
    D = QuaternionData(ram1=parse_poly("t+1", q), ram2=parse_poly("t+2", q))
    K = K_of(q, 1, "t")
    with pytest.raises(InvalidInput):
        nonexistence_criterion(D, parse_poly("t^2+2t+1", q), K)
