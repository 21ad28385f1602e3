"""Machine-checkable certificates for Hasse-principle violations.

A certificate records every hypothesis verdict of the global non-existence
criterion and every local witness for a tuple (q, ram1, ram2, y, n_poly, eps),
with K = F(sqrt(eps * y * ram1 * ram2 * n_poly)).  Verification rebuilds
the certificate from its inputs with the builder that certify uses, then
compares every field; witnesses are re-checked, never re-searched.

Serialization is canonical JSON: sorted keys, indent 2, ASCII, exact
integers, polynomials as canonical text and a trailing LF.  Serializing
twice yields identical bytes.
"""

import json
from dataclasses import dataclass

from . import ffield
from .errors import InvalidInput, ParseError, excerpt
from .fpoly import format_poly, parse_poly
from .localpoints import LocalWitness, lambda_cutoff, local_all
from .splitting import QuadraticField, QuaternionData, nonexistence_criterion
from .weil import check_norm_degree, exponent_n

SCHEMA_VERSION = 1

VALID = "VALID"
INVALID = "INVALID"


class SchemaError(ValueError):
    """Certificate does not match the expected schema."""


def admissible_eps_set(n_poly):
    """Units allowed as eps for a given n_poly: all of F_q^x when deg(n) is
    even, the non-squares when deg(n) is odd (valid when deg(y*p*q) is odd)."""
    q = n_poly.q
    return [e for e in range(1, q)
            if n_poly.degree % 2 == 0 or not ffield.is_square(e, q)]


# largest degree of n_poly that a certificate accepts.  The square-free
# test of the radical y * ram1 * ram2 * n_poly is Euclid's algorithm,
# quadratic in the degree.  Measured `verify_certificate` of cert0.json
# with a random monic n_poly on CPython 3.11, one core of a 2-vCPU
# machine: degree 1000 takes 0.08 s, 2000 0.67 s and 4000 2.5 s
_MAX_N_POLY_DEGREE = 1000


def _quadratic_field(D, y, n_poly, eps):
    """K = F(sqrt(eps * y * ram1 * ram2 * n_poly)), once the inputs meet the
    preconditions of a certificate; InvalidInput otherwise.  The degree
    bounds of y and n_poly come first.  The radical's test refuses an n_poly
    not monic, square-free and coprime to y * ram1 * ram2, and a y equal to
    a ramified prime; `nonexistence_criterion` tests y's irreducibility."""
    q = D.q
    check_norm_degree(y)
    if n_poly.degree > _MAX_N_POLY_DEGREE:
        raise InvalidInput("n_poly has degree %d, above %d"
                           % (n_poly.degree, _MAX_N_POLY_DEGREE))
    if (y.degree + D.ram1.degree + D.ram2.degree) % 2 == 0:
        raise InvalidInput("deg(y * ram1 * ram2) must be odd")
    if eps % q not in admissible_eps_set(n_poly):
        raise InvalidInput("eps is not admissible for this n_poly")
    return QuadraticField(eps=eps, radical=y * D.ram1 * D.ram2 * n_poly)


@dataclass(frozen=True)
class HasseCertificate:
    """In-memory certificate; `data` is the canonical JSON-ready dict."""

    data: dict

    @property
    def verdict(self):
        return self.data["verdict"]

    @property
    def valid(self):
        return self.data["verdict"] == VALID

    def to_json(self):
        return canonical_json(self.data)


# the canonical JSON format, for every writer
_CANONICAL = {"sort_keys": True, "indent": 2, "ensure_ascii": True}


def canonical_json(data):
    return json.dumps(data, **_CANONICAL) + "\n"


def write_canonical_json(data, fh):
    """Write the bytes of canonical_json(data) to the text file fh, streamed
    piece by piece instead of built as one string."""
    json.dump(data, fh, **_CANONICAL)
    fh.write("\n")


def _certificate_data(D, y, n_poly, K, recorded=None):
    """The certificate dict for K, for certify and verify alike: runs the
    criterion and the local battery (checking `recorded`'s mu and witnesses
    when given) and writes the header, the reasons and the verdict."""
    crit = nonexistence_criterion(D, y, K)
    report = local_all(D, K, recorded)
    reasons = list(crit.failures)
    for name, ok in (("ram1", report.ram1_ok), ("ram2", report.ram2_ok)):
        if not ok:
            reasons.append("no local points above %s" % name)
    if report.unwitnessed:
        reasons.append("no witness for %d place(s) below the cutoff"
                       % len(report.unwitnessed))
    return {
        "schema_version": SCHEMA_VERSION,
        "field_order": D.q,
        "d": 2,
        "y": format_poly(y),
        "ram1": format_poly(D.ram1),
        "ram2": format_poly(D.ram2),
        "n_poly": format_poly(n_poly),
        "eps": K.eps,
        "radicand": format_poly(K.radical),
        "exponent_n": exponent_n(D.q, 2),
        "seed": 0,
        "criterion": crit.to_dict(),
        "local": report.to_dict(),
        "verdict": VALID if crit.ok and report.ok else INVALID,
        "reasons": reasons,
    }


def hasse_certificate(D, y, n_poly, eps):
    """Run the global criterion and the local battery, returning a
    certificate marked VALID iff both succeed.

    Its criterion and local sections, reasons and verdict depend on
    (q, D, y) only, so one certificate covers every admissible
    (n_poly, eps), an infinite family of fields K:
    - y, ram1 and ram2 divide the square-free radical, so they ramify in
      K: `field_splits` and `y_ramified` hold, and each ramified prime
      needs the mu of `ramified_mu(D, r)`;
    - deg(y * ram1 * ram2) is odd, so infinity ramifies for even
      deg n_poly and, eps being a non-square, is inert for odd deg n_poly:
      it never splits, and `infinity_ok` holds;
    - m, the witnesses, `excluded` and `mu_obstruction` depend on (D, y).

    The verdict is also unchanged under two maps of (ram1, ram2, y):
    sigma: t -> alpha*t + beta (alpha a unit), applied to each and made
    monic, and the swap of ram1 and ram2.  sigma is an automorphism of A =
    F_q[t] and of F, fixing infinity and every degree; it maps a monic
    irreducible f to lc(sigma(f)) * f', lc(sigma(f)) = alpha^deg f and f'
    a monic irreducible of the same degree, so f -> f' permutes the monic
    irreducibles of each degree, taking ram1 and ram2 to ram1' and ram2'.
    Degrees are kept, so every degree bound reads the same on both sides.
    - Infinity: sigma(f) has f's degree and leading coefficient
      alpha^deg f * lc(f), which for even deg f is lc(f) times a square,
      so `nonsquare_at_infinity(f)` = `nonsquare_at_infinity(sigma(f))`.
    - Residue symbols: sigma induces A/r = A/sigma(r) = A/r', an isomorphism
      of fields, so x is zero, a nonzero square or a non-square mod r as
      sigma(x) is mod r', and the valuations agree: `splits_quaternion(D,
      x)` = `splits_quaternion(D', sigma(x))`.  Both it and infinity depend
      on a constant factor of x only through its square class.
    - dset: sigma(y) = c*y', c = alpha^deg y.  sigma maps X^2 + a1*X +
      mu*y to X^2 + sigma(a1)*X + (c*mu)*y', with a1's degree and the
      discriminant's square class at infinity, so it maps `enumerate_weil(
      y)` onto `enumerate_weil(y')`.  A root pi goes to a root sigma(pi),
      and y'^n = c^(-n)*sigma(y)^n = sigma(y)^n since (q - 1) | n, so
      N(sigma(pi)^(2n) - y'^n) = sigma(N(pi^(2n) - y^n)): the nonzero norms
      of y' are the images of those of y, p divides one iff p' does, and
      `ram1_excluded`, `ram2_excluded` and `excluded_prime` agree.
    - mu_obstruction and the mu-witnesses: sigma(mu*y) = (c*mu)*y' and
      sigma(mu*r) = (alpha^deg r*mu)*r'; as mu runs over both square
      classes so does the scaled constant, so `mu_y_obstruction` agrees,
      and a mu-witness exists at r iff one exists at r'.
    - m: sigma maps the a of degree <= m bijectively and keeps every
      symbol mod ram1 and ram2, so `fast_m_bound(D)` = `fast_m_bound(D')`
      and the witness cutoff agrees.
    - Witnesses: sigma(a^2 - 4c*l) = sigma(a)^2 - 4c*lc(sigma(l))*l', so
      (a, c) witnesses l for D iff (sigma(a), c*lc(sigma(l))) witnesses l'
      for D'.  c ranges over all of F_q^x and so does c*lc(sigma(l)): the
      constant is absorbed, and `unwitnessed` maps onto `unwitnessed`.
    - The swap: every predicate above reads ram1 and ram2 alike, the
      places exclude both, and the cutoffs and m read their degree sum
      or both primes; the swap exchanges the ram1 and ram2 fields and
      reasons, and `excluded` and the verdict, which take both, stay.
    The verdict is read from these alone, and the cheap filters of
    `search` are the same predicates, so the certified pairs and their
    verdicts map too.  The first witness and the mu found may
    differ, since sigma and the swap do not keep the search order: the
    `--json` bytes are not equivariant.
    `tests/test_search.py` checks both maps on small windows.
    """
    K = _quadratic_field(D, y, n_poly, eps)
    return HasseCertificate(data=_certificate_data(D, y, n_poly, K))


def _json(value, kind, label):
    """value itself when its JSON type is kind, an int never being a bool;
    otherwise a SchemaError, since int() or str() would silently coerce."""
    if isinstance(value, bool) or not isinstance(value, kind):
        name = {int: "integer", str: "string", list: "list", dict: "object"}[kind]
        raise SchemaError("%s must be a JSON %s, got %s" % (label, name, excerpt(value)))
    return value


def _json_poly(value, q, label, max_degree=None):
    f = parse_poly(_json(value, str, label), q)
    if max_degree is not None and f.degree > max_degree:
        raise SchemaError("%s has degree %d, above the cutoff %d"
                          % (label, f.degree, max_degree))
    return f


_WITNESS_KEYS = {"l", "a", "c"}


def _read_local(local, D):
    """The recorded answers of a `local` section, for `local_all` to check
    instead of searching: a dict from each ramified prime to its mu (None
    when null) and from each witness's place to the witness.  A mu takes
    the key of its prime over a witness recorded there; `lambda_set` never
    yields a ramified prime, so such a witness is simply not read.  A null
    section records no mu and no witness.  Valid witnesses have 2 * deg a
    <= deg l <= lambda_cutoff(D), so a recorded degree above it is refused,
    as in `unwitnessed`, which is read for its schema only: the comparison
    with the rebuilt section binds it."""
    if local is None:
        local = {"ram1_mu": None, "ram2_mu": None, "witnesses": [],
                 "unwitnessed": []}
    _json(local, dict, "local")
    q, cutoff = D.q, lambda_cutoff(D)
    answers = {}
    for item in _json(local["witnesses"], list, "local.witnesses"):
        if set(_json(item, dict, "witness")) != _WITNESS_KEYS:
            raise SchemaError("a witness needs exactly the keys a, c and l, got "
                              + excerpt(item))
        l, a = (_json_poly(item[k], q, "witness " + k, cutoff) for k in "la")
        answers[l] = LocalWitness(l=l, a=a, c=_json(item["c"], int, "witness c"))
    for l in _json(local["unwitnessed"], list, "local.unwitnessed"):
        _json_poly(l, q, "unwitnessed place", cutoff)
    for r, key in ((D.ram1, "ram1_mu"), (D.ram2, "ram2_mu")):
        answers[r] = None if local[key] is None else _json(local[key], int, key)
    return answers


def _read_inputs(data):
    """(D, y, n_poly, K, recorded local answers), read strictly: every
    polynomial a JSON string, every integer a JSON integer, and the inputs
    accepted by the types and the `_quadratic_field` that certify uses."""
    try:
        q = _json(data["field_order"], int, "field_order")
        y, ram1, ram2, n_poly = (_json_poly(data[key], q, key)
                                 for key in ("y", "ram1", "ram2", "n_poly"))
        D = QuaternionData(ram1=ram1, ram2=ram2)
        K = _quadratic_field(D, y, n_poly, _json(data["eps"], int, "eps"))
        recorded = _read_local(data["local"], D)
    except KeyError as exc:
        raise SchemaError("missing field %s" % exc) from exc
    except (InvalidInput, ParseError) as exc:
        raise SchemaError("unusable certificate fields: %s" % exc) from exc
    return D, y, n_poly, K, recorded


def _same_keys(recorded, expected, where):
    if set(recorded) != set(expected):
        raise SchemaError("%s has the fields %s, expected %s"
                          % (where, sorted(recorded), sorted(expected)))


def _differences(data, expected):
    """One message per field whose JSON text, keys sorted, differs from the
    rebuilt certificate's, the criterion and local sections key by key.
    Comparing JSON text binds types too: 1 is not true, "2" is not 2."""
    _same_keys(data, expected, "certificate")
    pairs = []
    for key in sorted(expected):
        recorded, rebuilt = data[key], expected[key]
        if isinstance(recorded, dict) and isinstance(rebuilt, dict):
            _same_keys(recorded, rebuilt, key)
            pairs += [("%s.%s" % (key, k), recorded[k], rebuilt[k])
                      for k in sorted(rebuilt)]
        else:
            pairs.append((key, recorded, rebuilt))
    texts = [(label,) + tuple(json.dumps(v, sort_keys=True) for v in values)
             for label, *values in pairs]
    return ["%s: recorded %s, expected %s" % t for t in texts if t[1] != t[2]]


def verify_certificate(data):
    """Rebuild the certificate from its inputs and recorded witnesses, then
    compare it with data field by field; returns (exit_code, messages).

    The rebuild recomputes the criterion and re-checks every recorded mu and
    witness (`local_all`'s check mode: nothing is searched).  Exit codes
    follow the CLI contract: 0 verified-valid, 1 checked and false
    (including any field that differs from the rebuild), 3 schema/format
    error (raised as SchemaError).
    """
    if not isinstance(data, dict):
        raise SchemaError("certificate must be a JSON object")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError("unsupported schema_version " + excerpt(data.get("schema_version")))
    if data.get("d") != 2:
        raise SchemaError("only d = 2 certificates are supported")
    D, y, n_poly, K, recorded = _read_inputs(data)
    try:
        expected = _certificate_data(D, y, n_poly, K, recorded)
    except InvalidInput as exc:
        # a precondition met only during the rebuild: y a monic irreducible,
        # or the sieve of the places up to the witness cutoff within bounds
        raise SchemaError("certificate inputs refused by the rebuild: %s" % exc) from exc
    failures = _differences(data, expected)
    if failures:
        return 1, failures
    if data["verdict"] != VALID:
        return 1, ["certificate verdict is INVALID"]
    return 0, []
