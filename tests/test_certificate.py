import copy
import json
from datetime import timedelta

import pytest
from hypothesis import given, settings, strategies as st

from dscurves import fpoly
from dscurves.certificate import (SCHEMA_VERSION, SchemaError,
                                  admissible_eps_set, canonical_json,
                                  hasse_certificate, verify_certificate)
from dscurves.errors import InvalidInput
from dscurves.fpoly import (Poly, is_squarefree, parse_poly, poly_gcd,
                            polys_of_degree_at_most)
from dscurves.splitting import QuaternionData

KNOWN_TRIPLES = [
    (3, "t^3+t^2+t+2", "t+1"),
    (3, "t^4+t^3+2t+1", "t^2+1"),
    (3, "t^5+2t+1", "t+2"),
]


def make_cert(q, ptxt, stxt):
    """The certificate with y = t, n_poly = 1 and the first admissible eps."""
    y = parse_poly("t", q)
    D = QuaternionData(ram1=parse_poly(ptxt, q), ram2=parse_poly(stxt, q))
    one = Poly.one(q)
    return hasse_certificate(D, y, one, admissible_eps_set(one)[0])


def test_admissible_eps_set():
    one = parse_poly("1", 3)
    assert admissible_eps_set(one) == [1, 2]           # even degree: all units
    assert admissible_eps_set(parse_poly("t", 3)) == [2]  # odd degree: nonsquares
    assert admissible_eps_set(parse_poly("t", 5)) == [2, 3]


def test_known_triples_valid_q3():
    for q, ptxt, stxt in KNOWN_TRIPLES:
        cert = make_cert(q, ptxt, stxt)
        assert cert.valid
        assert cert.data["schema_version"] == SCHEMA_VERSION
        assert cert.data["d"] == 2
        assert cert.data["exponent_n"] == (q * q - 1) ** 2


def test_serialization_is_byte_stable():
    cert = make_cert(3, "t^3+t^2+t+2", "t+1")
    text = cert.to_json()
    assert text == cert.to_json()
    assert text.endswith("\n")
    assert json.loads(text) == cert.data
    assert canonical_json(json.loads(text)) == text


def test_round_trip_verifies():
    cert = make_cert(3, "t^3+t^2+t+2", "t+1")
    code, failures = verify_certificate(json.loads(cert.to_json()))
    assert code == 0 and failures == []


# (q, ram1, ram2, largest deg n_poly, verdict of the family)
FAMILIES = [(3, "t^3+t^2+t+2", "t+1", 3, "VALID"),
            (3, "t^3+t^2+2", "t+1", 3, "INVALID"),
            (5, "t^3+t^2+4t+1", "t+2", 2, "VALID")]


def test_verdict_independent_of_n_poly_hypotheses():
    # every admissible (n_poly, eps) gives the criterion section, local
    # section, reasons and verdict of n_poly = 1: y, ram1 and ram2 ramify
    # in K and infinity never splits (see hasse_certificate)
    for q, ptxt, stxt, max_deg, verdict in FAMILIES:
        base = make_cert(q, ptxt, stxt).data
        assert base["verdict"] == verdict
        y = parse_poly("t", q)
        D = QuaternionData(ram1=parse_poly(ptxt, q), ram2=parse_poly(stxt, q))
        ramified = y * D.ram1 * D.ram2
        for n_poly in polys_of_degree_at_most(q, max_deg):
            if (not n_poly.is_monic or not is_squarefree(n_poly)
                    or poly_gcd(n_poly, ramified).degree > 0):
                continue
            for eps in admissible_eps_set(n_poly):
                data = hasse_certificate(D, y, n_poly, eps).data
                for key in ("criterion", "local", "reasons", "verdict"):
                    assert data[key] == base[key], (q, ptxt, n_poly, eps, key)
                assert data["criterion"]["field_splits"]
                assert data["criterion"]["y_ramified"]
                assert data["local"]["infinity_ok"]
                code, _ = verify_certificate(json.loads(canonical_json(data)))
                assert code == (0 if verdict == "VALID" else 1)


def test_invalid_triple_yields_invalid_certificate():
    cert = make_cert(3, "t^3+t^2+2", "t+1")
    assert not cert.valid
    assert cert.data["verdict"] == "INVALID"
    assert cert.data["reasons"]
    code, _ = verify_certificate(json.loads(cert.to_json()))
    assert code == 1  # consistent, but certifies nothing


def test_precondition_errors():
    q = 3
    y = parse_poly("t", q)
    D = QuaternionData(ram1=parse_poly("t^3+t^2+t+2", q),
                       ram2=parse_poly("t+1", q))
    # each n_poly with an admissible eps (any unit for even degree, the
    # non-square 2 for odd), so that the radical's test refuses it
    for n_text, eps in (("t^2+2t+1", 1),   # n not square-free
                        ("t", 2),          # n not coprime to y
                        ("t+1", 2),        # n not coprime to ram2
                        ("t^4+t^3+t^2+2t", 1),  # n = t * ram1
                        ("2t^2+1", 1),     # n not monic
                        ("0", 2)):         # n zero
        with pytest.raises(InvalidInput, match="radical must be"):
            hasse_certificate(D, y, parse_poly(n_text, q), eps)
    with pytest.raises(InvalidInput):
        hasse_certificate(D, y, parse_poly("t+2", q), 1)  # eps not admissible
    D_even = QuaternionData(ram1=parse_poly("t^2+1", q),
                            ram2=parse_poly("t+1", q))
    with pytest.raises(InvalidInput):
        hasse_certificate(D_even, y, Poly.one(q), 1)  # even total degree


# ---------------------------------------------------------------------------
# mutation battery: every single perturbation must flip verification


def mutations(data):
    d = copy.deepcopy(data)
    d["exponent_n"] += 1
    yield "exponent_n", d

    d = copy.deepcopy(data)
    d["radicand"] = "t"
    yield "radicand", d

    d = copy.deepcopy(data)
    d["eps"] += data["field_order"]  # same unit, but not the recorded residue
    yield "eps not reduced", d

    for key in ("field_splits", "y_ramified", "ram1_excluded", "mu_obstruction"):
        d = copy.deepcopy(data)
        d["criterion"][key] = not d["criterion"][key]
        yield "criterion." + key, d

    # 1 == True in Python, but not in canonical JSON
    for section in ("criterion", "local"):
        d = copy.deepcopy(data)
        d[section]["ok"] = 1
        yield section + ".ok=1", d

    d = copy.deepcopy(data)
    d["reasons"] = d["reasons"] + ["edited"]
    yield "reasons", d

    d = copy.deepcopy(data)
    d["seed"] = 1
    yield "seed", d

    d = copy.deepcopy(data)
    d["local"]["fast_m"] = str(d["local"]["fast_m"])
    yield "fast_m as a string", d

    # a certificate is canonical: witnesses in lambda_set order, c reduced
    d = copy.deepcopy(data)
    d["local"]["witnesses"].reverse()
    yield "reversed witnesses", d

    d = copy.deepcopy(data)
    d["local"]["witnesses"][0]["c"] += data["field_order"]
    yield "witness c not reduced", d

    d = copy.deepcopy(data)
    d["local"]["witnesses"] = d["local"]["witnesses"][:-1]
    yield "dropped witness", d

    d = copy.deepcopy(data)
    d["local"]["witnesses"][0]["c"] = 0
    yield "witness c=0", d

    d = copy.deepcopy(data)
    d["local"]["witnesses"].append(dict(d["local"]["witnesses"][0]))
    yield "duplicate witness", d

    d = copy.deepcopy(data)
    d["local"]["lambda_cutoff"] += 2
    yield "lambda_cutoff", d

    # a witness at a ramified prime: that prime's key holds its mu, and
    # lambda_set never yields it, so the witness is not read
    d = copy.deepcopy(data)
    d["local"]["witnesses"][0]["l"] = data["ram1"]
    yield "witness moved to l = ram1", d

    d = copy.deepcopy(data)
    d["local"]["witnesses"].append(dict(d["local"]["witnesses"][0], l=data["ram2"]))
    yield "witness at l = ram2", d

    # ram1_mu is 2 for the certificate below: 0 and 3 are not units mod 3,
    # 1 fails the mu-witness rule, 5 is 2 unreduced, and a ramified prime
    # needs some mu
    for mu in (0, 3, 1, 5, None):
        d = copy.deepcopy(data)
        d["local"]["ram1_mu"] = mu
        yield "ram1_mu=%r" % (mu,), d

    d = copy.deepcopy(data)
    d["local"]["fast_m"] = (d["local"]["fast_m"] or 0) + 1
    yield "fast_m", d

    d = copy.deepcopy(data)
    d["verdict"] = "INVALID"
    yield "verdict", d


def test_mutation_battery():
    data = json.loads(make_cert(3, "t^3+t^2+t+2", "t+1").to_json())
    assert data["local"]["ram1_mu"] == 2
    for name, mutated in mutations(data):
        code, failures = verify_certificate(mutated)
        assert code == 1, "mutation %r was not detected" % name
        assert failures
        if "l = ram" in name:  # the mu keeps its prime's key
            assert not [f for f in failures
                        if f.startswith(("local.ram1_mu", "local.ram2_mu"))]


def test_sieve_refused_in_the_rebuild_is_a_schema_error(monkeypatch):
    # the places up to the witness cutoff need a sieve above the limit:
    # verify refuses the certificate as unusable (exit 3), not as input
    data = json.loads(make_cert(3, "t^3+t^2+t+2", "t+1").to_json())
    monkeypatch.setattr(fpoly, "_MAX_SIEVE", 3 ** 2)
    fpoly.monic_irreducibles.cache_clear()
    try:
        with pytest.raises(SchemaError, match="exceeds 9"):
            verify_certificate(data)
    finally:
        fpoly.monic_irreducibles.cache_clear()


def test_reducible_y_is_refused_by_the_rebuild():
    # t^3+t = t(t^2+1) meets every precondition that reading checks; the
    # rebuild's criterion refuses it through dset(y), before any symbol
    data = json.loads(make_cert(3, "t^3+t^2+t+2", "t+1").to_json())
    data["y"] = "t^3+t"
    with pytest.raises(SchemaError,
                       match="refused by the rebuild: y must be a monic irreducible"):
        verify_certificate(data)


def test_schema_errors():
    data = json.loads(make_cert(3, "t^3+t^2+t+2", "t+1").to_json())

    d = copy.deepcopy(data)
    del d["exponent_n"]
    with pytest.raises(SchemaError):
        verify_certificate(d)

    d = copy.deepcopy(data)
    d["schema_version"] = 2
    with pytest.raises(SchemaError):
        verify_certificate(d)

    d = copy.deepcopy(data)
    d["y"] = "not a polynomial!!"
    with pytest.raises(SchemaError):
        verify_certificate(d)

    d = copy.deepcopy(data)
    d["extra_field"] = 1
    with pytest.raises(SchemaError):
        verify_certificate(d)

    # integers must be JSON integers (no bools, floats or strings),
    # polynomials JSON strings, witnesses and unwitnessed lists, and each
    # witness an object with exactly the keys l, a and c
    for path, value in ((("local", "ram1_mu"), "1"),
                        (("local", "ram1_mu"), 1.0),
                        (("local", "ram2_mu"), True),
                        (("eps",), 1.5),
                        (("eps",), True),
                        (("eps",), "x"),
                        (("local", "witnesses", 0, "c"), 1.5),
                        (("local", "witnesses"), 5),
                        (("local", "unwitnessed"), 5),
                        (("local", "unwitnessed"), [[1]]),
                        (("y",), 5),
                        (("ram1",), None),
                        (("local", "witnesses", 0, "l"), 5),
                        (("local", "witnesses", 0), ["t", "1", 1]),
                        (("local", "witnesses", 0, "extra"), 1),
                        (("local", "witnesses", 0, "a"), "t^" + "9" * 5000),
                        (("local", "witnesses", 0, "a"), "t^1000000000"),
                        # above lambda_cutoff(D) = 6, which bounds every
                        # valid witness and unwitnessed place
                        (("local", "witnesses", 0, "l"), "t^99999"),
                        (("local", "witnesses", 0, "a"), "t^7"),
                        (("local", "unwitnessed"), ["t^7+1"]),
                        (("y",), "t^" + "9" * 5000),
                        (("y",), "t^1000000000"),
                        (("field_order",), 2 ** 61 - 1),
                        (("field_order",), 101)):
        d = copy.deepcopy(data)
        _at(d, path[:-1])[path[-1]] = value
        with pytest.raises(SchemaError):
            verify_certificate(d)

    # every precondition holds in the first two, but the work is refused
    # from degrees alone, before any irreducibility test: the norms of
    # dset(t) at q = 101 have degree 2.08e8, and the degree-16 y at q = 3
    # has 39366 norms of degree 2048; ram1 of degree 3000 has 3^3001
    # residue pairs
    y16 = "t^16+2t^15+2t^14+2t^13+t^12+2t^10+2t^9+t^5+2t^4+2t^3+2t^2+1"
    for update, reason in (
            (dict(field_order=101, ram1="t+1", ram2="t+2", y="t"), "norm degree"),
            (dict(ram1="t+1", ram2="t^2+1", y=y16), "norm degree"),
            (dict(ram1="t^3000+t+2"), "deg ram1 \\+ deg ram2")):
        d = copy.deepcopy(data)
        d.update(update)
        with pytest.raises(SchemaError, match=reason):
            verify_certificate(d)


def _at(data, path):
    for key in path:
        data = data[key]
    return data


def _paths(node, prefix=()):
    """Every path from the root of a JSON value to one of its nodes."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _json_type(value):
    return type(value).__name__


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)

_VALID_Q3 = json.loads(make_cert(3, "t^3+t^2+t+2", "t+1").to_json())


@settings(max_examples=200, deadline=timedelta(seconds=5), derandomize=True,
          database=None)
@given(st.data())
def test_verify_rejects_any_retyped_or_deleted_field(data):
    # the trust boundary: one leaf given another JSON type, or one key
    # deleted, is exit 1 or a SchemaError, never exit 0 or another exception
    path = data.draw(st.sampled_from(sorted(_paths(_VALID_Q3), key=repr)))
    d = copy.deepcopy(_VALID_Q3)
    parent, old = _at(d, path[:-1]), _at(d, path)
    if isinstance(parent, dict) and data.draw(st.booleans()):
        del parent[path[-1]]
    else:
        parent[path[-1]] = data.draw(
            _JSON_VALUES.filter(lambda v: _json_type(v) != _json_type(old)))
    try:
        code, failures = verify_certificate(d)
    except SchemaError:
        return
    assert code == 1 and failures
