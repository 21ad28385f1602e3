"""Machine-checkable certificates for Hasse-principle violations.

A certificate records every hypothesis verdict of the global non-existence
criterion and every local witness for a tuple (q, ram1, ram2, y, n_poly, eps),
with K = F(sqrt(eps * y * ram1 * ram2 * n_poly)).  Verification re-evaluates
each recorded predicate from the stored fields; witnesses are re-checked,
never re-searched.

Serialization is canonical JSON: sorted keys, exact integers, polynomials as
canonical text, LF line endings.  Serializing twice yields identical bytes.
"""

import json
from dataclasses import dataclass

from . import ffield
from .errors import InvalidInput, ParseError
from .fpoly import (Poly, format_poly, is_irreducible, is_squarefree,
                    parse_poly, poly_gcd)
from .localpoints import (LocalWitness, fast_m_bound, lambda_cutoff,
                          lambda_set, local_all, local_ramified_prime,
                          mu_witness_ok, witness_cutoff, witness_ok)
from .splitting import (QuadraticField, QuaternionData, SplitType,
                        infinity_behavior, nonexistence_criterion)
from .weil import exponent_n

SCHEMA_VERSION = 1

VALID = "VALID"
INVALID = "INVALID"


class SchemaError(ValueError):
    """Certificate does not match the expected schema."""


def admissible_eps_set(n_poly):
    """Units allowed as eps for a given n_poly: all of F_q^x when deg(n) is
    even, the non-squares when deg(n) is odd (valid when deg(y*p*q) is odd)."""
    q = n_poly.q
    if n_poly.degree % 2 == 0:
        return [e for e in range(1, q)]
    return [e for e in range(1, q) if not ffield.is_square(e, q)]


def _check_preconditions(D, y, n_poly, eps):
    q = D.q
    if not y.is_monic or not is_irreducible(y):
        raise InvalidInput("y must be a monic irreducible")
    if y in (D.ram1, D.ram2):
        raise InvalidInput("y must avoid the ramified primes")
    if n_poly.is_zero or not n_poly.is_monic:
        raise InvalidInput("n_poly must be monic")
    if not is_squarefree(n_poly):
        raise InvalidInput("n_poly must be square-free")
    for name, f in (("y", y), ("ram1", D.ram1), ("ram2", D.ram2)):
        if n_poly.degree > 0 and poly_gcd(n_poly, f).degree > 0:
            raise InvalidInput("n_poly must be coprime to %s" % name)
    if (y.degree + D.ram1.degree + D.ram2.degree) % 2 == 0:
        raise InvalidInput("deg(y * ram1 * ram2) must be odd")
    if eps % q not in admissible_eps_set(n_poly):
        raise InvalidInput("eps is not admissible for this n_poly")


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


def canonical_json(data):
    return json.dumps(data, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def hasse_certificate(D, y, n_poly, eps, seed=0):
    """Run the global criterion and the local battery, returning a
    certificate marked VALID iff both succeed."""
    _check_preconditions(D, y, n_poly, eps)
    q = D.q
    radical = y * D.ram1 * D.ram2 * n_poly
    K = QuadraticField(eps=eps, radical=radical)
    crit = nonexistence_criterion(D, y, K)
    reasons = list(crit.failures)
    local_section = None
    if crit.field_splits:
        report = local_all(D, K)
        local_section = report.to_dict()
        if not report.infinity_ok:
            reasons.append("infinity splits in K")
        for name, ok in (("ram1", report.ram1_ok), ("ram2", report.ram2_ok)):
            if not ok:
                reasons.append("no local points above %s" % name)
        if report.unwitnessed:
            reasons.append("no witness for %d place(s) below the cutoff"
                           % len(report.unwitnessed))
    else:
        reasons.append("local battery skipped: K does not split the algebra")
    verdict = VALID if (crit.ok and local_section is not None
                        and local_section["ok"]) else INVALID
    data = {
        "schema_version": SCHEMA_VERSION,
        "field_order": q,
        "d": 2,
        "y": format_poly(y),
        "ram1": format_poly(D.ram1),
        "ram2": format_poly(D.ram2),
        "n_poly": format_poly(n_poly),
        "eps": eps % q,
        "radicand": format_poly(radical),
        "exponent_n": exponent_n(q, 2),
        "seed": seed,
        "criterion": {
            "field_splits": crit.field_splits,
            "y_ramified": crit.y_ramified,
            "ram1_excluded": crit.ram1_excluded,
            "ram2_excluded": crit.ram2_excluded,
            "excluded_prime": crit.excluded_prime,
            "mu_obstruction": crit.mu_obstruction,
            "ok": crit.ok,
        },
        "local": local_section,
        "verdict": verdict,
        "reasons": reasons,
    }
    return HasseCertificate(data=data)


_TOP_KEYS = {"schema_version", "field_order", "d", "y", "ram1", "ram2",
             "n_poly", "eps", "radicand", "exponent_n", "seed", "criterion",
             "local", "verdict", "reasons"}
_CRIT_KEYS = {"field_splits", "y_ramified", "ram1_excluded", "ram2_excluded",
              "excluded_prime", "mu_obstruction", "ok"}
_LOCAL_KEYS = {"infinity_ok", "ram1_ok", "ram1_mu", "ram2_ok", "ram2_mu",
               "lambda_cutoff", "witness_cutoff", "fast_m", "witnesses",
               "unwitnessed", "ok"}


def _schema_check(data):
    if not isinstance(data, dict):
        raise SchemaError("certificate must be a JSON object")
    if data.get("schema_version") != SCHEMA_VERSION:
        raise SchemaError("unsupported schema_version %r" % (data.get("schema_version"),))
    missing = _TOP_KEYS - set(data)
    if missing:
        raise SchemaError("missing fields: %s" % ", ".join(sorted(missing)))
    unknown = set(data) - _TOP_KEYS
    if unknown:
        raise SchemaError("unknown fields: %s" % ", ".join(sorted(unknown)))
    if data["d"] != 2:
        raise SchemaError("only d = 2 certificates are supported")
    crit = data["criterion"]
    if not isinstance(crit, dict) or _CRIT_KEYS - set(crit):
        raise SchemaError("malformed criterion section")
    local = data["local"]
    if local is not None and (not isinstance(local, dict) or _LOCAL_KEYS - set(local)):
        raise SchemaError("malformed local section")


def _json_int(value, label):
    """value itself when it is a JSON integer (bools excluded); otherwise
    a SchemaError, since int() would silently truncate or coerce."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SchemaError("%s must be an integer, got %r" % (label, value))
    return value


def verify_certificate(data):
    """Re-evaluate every recorded predicate; returns (exit_code, messages).

    Exit codes follow the CLI contract: 0 verified-valid, 1 checked and
    false (including any tampered field), 3 schema/format error (raised as
    SchemaError).
    """
    _schema_check(data)
    try:
        q = data["field_order"]
        ffield.validate_field_order(q)
        y = parse_poly(data["y"], q)
        ram1 = parse_poly(data["ram1"], q)
        ram2 = parse_poly(data["ram2"], q)
        n_poly = parse_poly(data["n_poly"], q)
        eps = _json_int(data["eps"], "eps")
        D = QuaternionData(ram1=ram1, ram2=ram2)
        _check_preconditions(D, y, n_poly, eps)
        radical = y * ram1 * ram2 * n_poly
        K = QuadraticField(eps=eps, radical=radical)
    except (InvalidInput, ParseError) as exc:
        raise SchemaError("unusable certificate fields: %s" % exc) from exc

    failures = []

    def check(label, recorded, recomputed):
        if recorded != recomputed:
            failures.append("%s: recorded %r, recomputed %r"
                            % (label, recorded, recomputed))

    check("eps", eps, K.eps)
    check("radicand", data["radicand"], format_poly(radical))
    check("exponent_n", data["exponent_n"], exponent_n(q, 2))

    crit = data["criterion"]
    fresh = nonexistence_criterion(D, y, K)
    check("criterion.field_splits", crit["field_splits"], fresh.field_splits)
    check("criterion.y_ramified", crit["y_ramified"], fresh.y_ramified)
    check("criterion.ram1_excluded", crit["ram1_excluded"], fresh.ram1_excluded)
    check("criterion.ram2_excluded", crit["ram2_excluded"], fresh.ram2_excluded)
    check("criterion.excluded_prime", crit["excluded_prime"], fresh.excluded_prime)
    check("criterion.mu_obstruction", crit["mu_obstruction"], fresh.mu_obstruction)
    check("criterion.ok", crit["ok"], fresh.ok)

    local = data["local"]
    if local is None:
        check("local-section-presence", fresh.field_splits, False)
    else:
        check("local.infinity_ok", local["infinity_ok"],
              infinity_behavior(K) != SplitType.SPLIT)
        for name in ("ram1", "ram2"):
            ok_rec = local["%s_ok" % name]
            mu_rec = local["%s_mu" % name]
            if mu_rec is not None:
                _json_int(mu_rec, "local.%s_mu" % name)
            fresh_ok, fresh_mu = local_ramified_prime(D, K, name)
            if ok_rec and fresh_mu is not None:
                # ramified prime: any mu passing the rule is a valid witness
                if mu_rec is None:
                    failures.append("local.%s: ramified prime needs a mu witness" % name)
                elif not mu_witness_ok(D, name, mu_rec):
                    failures.append("local.%s: mu witness %d fails" % (name, mu_rec))
            else:
                check("local.%s" % name, (ok_rec, mu_rec), (fresh_ok, fresh_mu))
        check("local.lambda_cutoff", local["lambda_cutoff"], lambda_cutoff(D))
        m = fast_m_bound(D)
        check("local.fast_m", local["fast_m"], m)
        cutoff = witness_cutoff(D, m)
        check("local.witness_cutoff", local["witness_cutoff"], cutoff)
        seen = set()
        for item in local["witnesses"]:
            try:
                w = LocalWitness(l=parse_poly(item["l"], q),
                                 a=parse_poly(item["a"], q),
                                 c=_json_int(item["c"], "witness c"))
            except (ParseError, KeyError, TypeError) as exc:
                raise SchemaError("malformed witness entry: %s" % exc) from exc
            if w.l in seen:
                failures.append("duplicate witness for l=%s" % item["l"])
            elif not witness_ok(D, w):
                failures.append("witness for l=%s fails re-checking" % item["l"])
            seen.add(w.l)
        required = lambda_set(D, max_degree=cutoff)
        unwit = {u for u in local["unwitnessed"]}
        for l in required:
            text = format_poly(l)
            if l not in seen and text not in unwit:
                failures.append("no witness recorded for l=%s" % text)
        check("local.ok", local["ok"],
              local["infinity_ok"] and local["ram1_ok"] and local["ram2_ok"]
              and not local["unwitnessed"])

    expected_verdict = VALID if (crit["ok"] and local is not None
                                 and local["ok"] and not failures) else INVALID
    if data["verdict"] != expected_verdict or failures:
        if data["verdict"] != expected_verdict:
            failures.append("verdict: recorded %r, expected %r"
                            % (data["verdict"], expected_verdict))
        return 1, failures
    if data["verdict"] != VALID:
        return 1, ["certificate verdict is INVALID"]
    return 0, []
