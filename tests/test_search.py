import hashlib
import json

from dscurves import cli, search
from dscurves.certificate import canonical_json, verify_certificate
from dscurves.fpoly import Poly, format_poly, monic_irreducibles, parse_poly
from dscurves.localpoints import local_all, mu_witness_ok, ramified_mu
from dscurves.splitting import QuadraticField, QuaternionData

WINDOW = ["--field-order", "3", "--max-deg1", "3", "--max-deg2", "1"]

# sha256 of `search --field-order 5 --max-deg1 3 --max-deg2 1 --json`: it
# pins the witness order and the m-bound at q = 5, as the benchmark's
# reference search pins them at q = 3
SEARCH_Q5_SHA256 = "cd43462bc783010852ebb8b5eb7d623f96810c2e7e123f58cae8659fb9d7d262"


def test_library_search_matches_cli(capsys):
    y = parse_poly("t", 3)
    n_candidates, results = search.search(y, 3, 1, workers=1)
    valid = [(a, b, d) for a, b, d in list(results) if d["verdict"] == "VALID"]

    assert cli.main(["search"] + WINDOW + ["--json"]) == 0
    triples = json.loads(capsys.readouterr().out)["triples"]
    assert [(t["ram1"], t["ram2"], t["certificate"]) for t in triples] == valid

    assert cli.main(["search"] + WINDOW) == 0
    last = capsys.readouterr().out.splitlines()[-1]
    assert last.endswith("out of %d candidate(s)" % n_candidates)
    assert n_candidates == len(search.candidates(y, 3, 1))


def test_search_certificates_verify(capsys):
    # what search certifies, verify accepts: exit 0 for every listed VALID
    # certificate and 1 for each INVALID one the library returns
    assert cli.main(["search"] + WINDOW + ["--json"]) == 0
    listed = [t["certificate"] for t in json.loads(capsys.readouterr().out)["triples"]]
    assert listed
    for data in listed:
        assert verify_certificate(data) == (0, [])
    _, results = search.search(parse_poly("t", 3), 3, 1)
    invalid = [d for _, _, d in list(results) if d["verdict"] != "VALID"]
    assert invalid
    for data in invalid:
        assert verify_certificate(json.loads(canonical_json(data)))[0] == 1


def test_ramified_mu_is_the_local_rule():
    q = 3
    y = parse_poly("t", q)
    pairs = search.candidates(y, 3, 1)
    assert pairs
    for p, s in pairs:
        D = QuaternionData(ram1=p, ram2=s)
        report = local_all(D, QuadraticField(eps=1, radical=y * p * s))
        for r, ok, got in ((p, report.ram1_ok, report.ram1_mu),
                           (s, report.ram2_ok, report.ram2_mu)):
            mu = ramified_mu(D, r)
            assert (ok, got) == (mu is not None, mu)
            # the rule depends on mu only through its square class
            assert (mu is not None) == any(mu_witness_ok(D, r, m)
                                           for m in range(1, q))


def test_odd_degree_sum_has_one_mu_witness_only():
    # the lemma in passes_cheap_filters' docstring: when deg ram1 + deg ram2
    # is odd, reciprocity lets exactly one ramified prime have a mu-witness,
    # so a pair with an even-degree y never passes the cheap filters
    checked = 0
    for q, total in [(3, 3), (3, 5), (5, 3), (7, 3)]:
        for d1 in range(1, total):
            for p in monic_irreducibles(q, d1):
                for s in monic_irreducibles(q, total - d1):
                    D = QuaternionData(ram1=p, ram2=s)
                    mus = [ramified_mu(D, r) for r in (p, s)]
                    assert mus.count(None) == 1, D
                    checked += 1
    assert checked == 174 + 100 + 294


def test_search_q5_output_is_pinned(capsys):
    assert cli.main(["search", "--field-order", "5", "--max-deg1", "3",
                     "--max-deg2", "1", "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SEARCH_Q5_SHA256


def _affine(f, alpha, beta):
    """f(alpha*t + beta), made monic, by Horner's rule on Poly."""
    q = f.q
    x = Poly(q, (beta, alpha))
    out = Poly.zero(q)
    for c in reversed(f.coeffs):
        out = out * x + Poly.constant(q, c)
    return out.monic()


def _verdicts(y, max_deg1, max_deg2):
    """{(ram1 text, ram2 text): verdict} of every pair search certifies."""
    _, results = search.search(y, max_deg1, max_deg2)
    return {(p, s): data["verdict"] for p, s, data in results}


def test_search_verdicts_are_affine_invariant():
    # t -> alpha*t + beta fixes infinity and degrees, and sends a monic prime
    # to a unit times a monic prime; the units mu and c range over all of
    # F_q^x and absorb it, so the certified pairs of y map with their
    # verdicts onto those of sigma(y), and sigma(y) certifies no other pair
    for q, y_text, window, maps in (
            (3, "t^3+2t+1", (4, 2),
             [(a, b) for a in (1, 2) for b in range(3) if (a, b) != (1, 0)]),
            (5, "t", (3, 1), [(2, 0), (1, 1), (3, 4)])):
        y = parse_poly(y_text, q)
        base = _verdicts(y, *window)
        assert set(base.values()) == {"VALID", "INVALID"}
        for alpha, beta in maps:
            mapped = {tuple(format_poly(_affine(parse_poly(r, q), alpha, beta))
                            for r in pair): verdict
                      for pair, verdict in base.items()}
            assert _verdicts(_affine(y, alpha, beta), *window) == mapped, (q, alpha, beta)


def test_search_verdicts_survive_the_swap():
    # D depends only on {ram1, ram2}: in a square window each certified
    # pair's swap is certified with the same verdict
    verdicts = _verdicts(parse_poly("t", 3), 4, 4)
    assert set(verdicts.values()) == {"VALID", "INVALID"}
    for (p, s), verdict in verdicts.items():
        assert verdicts.get((s, p)) == verdict, (p, s)
