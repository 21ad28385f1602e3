"""Acceptance battery: one test per top-level claim, each printing a
single PASS/FAIL line (run with -s or look at captured output)."""

import copy
import json
import math
import random
import time

import pytest

from dscurves.certificate import (SchemaError, admissible_eps_set,
                                  hasse_certificate, verify_certificate)
from dscurves.fpoly import (Poly, factor, is_irreducible, monic_irreducibles,
                            parse_poly, polys_of_degree_at_most,
                            residue_symbol)
from dscurves.splitting import QuaternionData
from dscurves.weil import dset, enumerate_weil, exponent_n, lq, p_excluded
from dscurves import cli
from oracles import QuadExtElem, ext_mul, gauss_irreducible_count, norm

SIX_TRIPLES = [
    (3, "t^3+t^2+t+2", "t+1"),
    (3, "t^4+t^3+2t+1", "t^2+1"),
    (3, "t^5+2t+1", "t+2"),
    (5, "t^3+t^2+4t+1", "t+2"),
    (5, "t^4+2", "t^2+t+1"),
    (7, "t^3+2", "t+3"),
]


def report(capsys, num, label, ok):
    # lift pytest's capture so one line per criterion always reaches the console
    with capsys.disabled():
        print("[%s] criterion %d: %s" % ("PASS" if ok else "FAIL", num, label))
    assert ok, "criterion %d (%s) failed" % (num, label)


def test_criterion_1_table_reproduction(capsys):
    ok = True
    for q, ptxt, stxt in SIX_TRIPLES:
        t0 = time.time()
        D = QuaternionData(ram1=parse_poly(ptxt, q), ram2=parse_poly(stxt, q))
        one = Poly.one(q)
        cert = hasse_certificate(D, parse_poly("t", q), one,
                                 admissible_eps_set(one)[0])
        elapsed = time.time() - t0
        budget = 5.0 if q == 3 else 60.0
        if not (cert.valid and elapsed <= budget):
            ok = False
        code, _ = verify_certificate(json.loads(cert.to_json()))
        if code != 0:
            ok = False
    report(capsys, 1, "six table triples certify VALID within budget", ok)


def test_criterion_2_excluded_prime_reproduction(capsys):
    t0 = time.time()
    listed = [(3, "t^3+t^2+t+2"), (3, "t^4+t^3+2t+1"), (3, "t^5+2t+1"),
              (5, "t^3+t^2+4t+1"), (5, "t^4+2"), (7, "t^3+2")]
    ok = all(p_excluded(parse_poly(ptxt, q), parse_poly("t", q))
             for q, ptxt in listed)
    ok = ok and (time.time() - t0) <= 30.0
    report(capsys, 2, "listed primes avoid the excluded-prime set of y=t", ok)


def run_search_json(q, d1, d2, capsys):
    code = cli.main(["search", "--field-order", str(q),
                     "--max-deg1", str(d1), "--max-deg2", str(d2), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    return {(t["ram1"], t["ram2"]) for t in json.loads(out)["triples"]}


def test_criterion_3_search_containment(capsys):
    t0 = time.time()
    found3 = run_search_json(3, 5, 2, capsys)
    found5 = run_search_json(5, 4, 2, capsys)
    found7 = run_search_json(7, 3, 1, capsys)
    ok = (("t^3+t^2+t+2", "t+1") in found3
          and ("t^4+t^3+2t+1", "t^2+1") in found3
          and ("t^5+2t+1", "t+2") in found3
          and ("t^3+t^2+4t+1", "t+2") in found5
          and ("t^4+2", "t^2+t+1") in found5
          and ("t^3+2", "t+3") in found7)
    ok = ok and (time.time() - t0) <= 1800.0
    report(capsys, 3, "searches contain the six table triples", ok)


def test_criterion_4_exponent_identities(capsys):
    ok = all(exponent_n(q, 2) == (q * q - 1) ** 2 for q in (3, 5, 7))
    for q in (3, 5, 7):
        for d in range(1, 7):
            if lq(q, d) != math.lcm(*[q ** i - 1 for i in range(1, d + 1)]):
                ok = False
    report(capsys, 4, "exponent identities", ok)


def test_criterion_5_symbol_goldens(capsys):
    q = 3
    p = parse_poly("t^3+t^2+t+2", q)
    l = parse_poly("t+1", q)
    ok = (residue_symbol(l, p) == -1 and residue_symbol(-p, l) == -1)
    report(capsys, 5, "residue-symbol goldens", ok)


def test_criterion_6_property_suites(capsys):
    t0 = time.time()
    ok = True

    # (a) residue symbol vs exhaustive-square oracle, deg p <= 3, q in {3,5}
    for q in (3, 5):
        for deg in (1, 2, 3):
            for p in monic_irreducibles(q, deg):
                squares = {((a * a) % p).coeffs
                           for a in polys_of_degree_at_most(q, deg - 1)
                           if not (a % p).is_zero}
                for a in polys_of_degree_at_most(q, deg):
                    r = a % p
                    want = 0 if r.is_zero else (1 if r.coeffs in squares else -1)
                    if residue_symbol(a, p) != want:
                        ok = False

    # (b) Gauss irreducible counts (full n<=8 at q=3; enumeration is q^n, so
    # the larger fields are checked to the same work bound)
    for q, maxdeg in ((3, 8), (5, 6), (7, 4)):
        for n in range(1, maxdeg + 1):
            if len(monic_irreducibles(q, n)) != gauss_irreducible_count(q, n):
                ok = False

    # (c) reciprocity on 500 random irreducible pairs
    rng = random.Random(600)
    for q in (3, 5, 7):
        pool = [p for d in (1, 2, 3, 4) for p in monic_irreducibles(q, d)]
        for _ in range(167):
            f, g = rng.sample(pool, 2)
            sign = (-1) ** (f.degree * g.degree * ((q - 1) // 2))
            if residue_symbol(f, g) * residue_symbol(g, f) != sign:
                ok = False

    # (d) norm multiplicativity and minimal-poly annihilation, 1000 elements
    for q in (3, 5):
        y = parse_poly("t", q)
        ws = enumerate_weil(y)
        for w in ws:
            pi = QuadExtElem(u=Poly.zero(q), v=Poly.one(q), modulus=w)
            sq = ext_mul(pi, pi)
            if not (sq.u + w.const_term).is_zero or not (sq.v + w.a1).is_zero:
                ok = False
        for _ in range(500):
            w = rng.choice(ws)
            def rand_elem():
                u = Poly(q, tuple(rng.randrange(q) for _ in range(rng.randrange(20) + 1)))
                v = Poly(q, tuple(rng.randrange(q) for _ in range(rng.randrange(20) + 1)))
                return QuadExtElem(u=u, v=v, modulus=w)
            a, b = rand_elem(), rand_elem()
            if norm(ext_mul(a, b)) != norm(a) * norm(b):
                ok = False

    # (e) factor round-trip on 1000 random polynomials of degree <= 40
    for q in (3, 5):
        for _ in range(500):
            deg = rng.randrange(41)
            f = Poly(q, tuple(rng.randrange(q) for _ in range(deg + 1)))
            if f.is_zero:
                continue
            fac = factor(f, seed=rng.randrange(10 ** 9))
            if fac.product(q) != f:
                ok = False
            if any(not (p.is_monic and is_irreducible(p)) for p, _ in fac.factors):
                ok = False

    # (f) certificate mutations all flip verification
    q = 3
    D = QuaternionData(ram1=parse_poly("t^3+t^2+t+2", q),
                       ram2=parse_poly("t+1", q))
    base = json.loads(hasse_certificate(D, parse_poly("t", q), Poly.one(q),
                                        1).to_json())
    for w in base["local"]["witnesses"]:
        mutated = copy.deepcopy(base)
        idx = base["local"]["witnesses"].index(w)
        # move a outside the proven region (2 deg a > deg l <= 4) and break
        # the discriminant class
        mutated["local"]["witnesses"][idx]["a"] = "t^3"
        code, _ = verify_certificate(mutated)
        if code != 1:
            ok = False
        # above lambda_cutoff(D) = 6, a is refused as soon as it is read
        mutated["local"]["witnesses"][idx]["a"] = "t^9"
        with pytest.raises(SchemaError):
            verify_certificate(mutated)

    ok = ok and (time.time() - t0) <= 300.0
    report(capsys, 6, "property suites (symbol oracle, Gauss counts, reciprocity, "
              "norms, factor round-trip, mutations)", ok)


def test_criterion_7_zero_norm_dichotomy(capsys):
    y = parse_poly("t", 3)
    entries = dset(y)
    ok = all(e.value.is_zero == e.source.a1.is_zero for e in entries)
    ok = ok and any((not e.is_zero) and (not e.source.a1.is_zero)
                    for e in entries)
    report(capsys, 7, "zero-norm dichotomy at q=3, y=t", ok)
