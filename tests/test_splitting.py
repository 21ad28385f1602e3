import pytest

from dscurves.errors import InvalidInput
from dscurves.fpoly import parse_poly, residue_symbol
from dscurves.splitting import (QuadraticField, QuaternionData, SplitType,
                                field_splits_quaternion, mu_y_obstruction,
                                nonexistence_criterion, place_behavior)
from dscurves.weil import nonsquare_at_infinity


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
    # a long reducible prime inside the pair bound is quoted as a short
    # excerpt
    text = "t^9+2t^8+2t^7+2t^6+2t^5+2t^4+2t^3+2t^2+2t"
    with pytest.raises(InvalidInput, match="ram1 must be a monic irreducible") as exc:
        QuaternionData(ram1=parse_poly(text, 3), ram2=p)
    assert text not in str(exc.value) and len(str(exc.value)) < 200
    # one of degree 301 is refused by the pair bound, from degrees alone
    with pytest.raises(InvalidInput, match=r"q\^\(deg ram1 \+ deg ram2\) exceeds"):
        QuaternionData(ram1=p * parse_poly("t^300+t+2", 3), ram2=parse_poly("t", 3))


def test_place_behavior_trichotomy():
    q = 3
    K = K_of(q, 1, "t")
    assert place_behavior(parse_poly("t", q), K) == SplitType.RAMIFIED
    # t is a square mod t^2+1?  t = t, symbol decides
    for ltxt in ("t+1", "t+2", "t^2+1", "t^3+2t+1"):
        l = parse_poly(ltxt, q)
        sym = residue_symbol(K.radicand, l)
        want = SplitType.SPLIT if sym == 1 else SplitType.INERT
        assert place_behavior(l, K) == want


def test_place_behavior_exhaustive_small():
    # splitting matches the count of square roots of the radicand mod l
    q = 5
    K = K_of(q, 2, "t^2+2")
    from dscurves.fpoly import monic_irreducibles, polys_of_degree_at_most
    for deg in (1, 2):
        for l in monic_irreducibles(q, deg):
            roots = sum(1 for x in polys_of_degree_at_most(q, deg - 1)
                        if ((x * x - K.radicand) % l).is_zero)
            b = place_behavior(l, K)
            if (K.radicand % l).is_zero:
                assert b == SplitType.RAMIFIED
            elif roots == 2:
                assert b == SplitType.SPLIT
            else:
                assert roots == 0 and b == SplitType.INERT


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
    assert field_splits_quaternion(K, D)
    # a field where ram2 splits does not split D
    K2 = K_of(q, 1, "t^2+t+2")
    if place_behavior(D.ram1, K2) == SplitType.SPLIT or \
       place_behavior(D.ram2, K2) == SplitType.SPLIT:
        assert not field_splits_quaternion(K2, D)


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
