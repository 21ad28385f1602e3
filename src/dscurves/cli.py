"""Command-line driver: parses arguments, calls the library, prints.

Subcommands mirror the pipeline stages: `wset`, `pcheck`, `pset`,
`criterion`, `local`, `certify`, `verify`, `search`.  No mathematics and
no input precondition lives here: the library checks what it is given, so
the Python API refuses the inputs the CLI refuses.  The search pipeline is
`dscurves.search.search`.

The options that several subcommands take are declared once, in
`_OPTIONS`, and each subcommand names the ones it takes.  `main` parses
every polynomial option present, once, in the fixed order of
`_POLYNOMIALS`, so each command receives `Poly`s.

Exit codes: 0 verified/valid, 1 checked-and-false, 2 invalid input,
3 format/schema error.
"""

import argparse
import json
import re
import sys

from .certificate import (VALID, SchemaError, hasse_certificate,
                          verify_certificate, write_canonical_json)
from .errors import InvalidInput, ParseError, excerpt
from .fpoly import format_poly, parse_poly
from .localpoints import local_all
from .search import MAX_WORKERS, search
from .splitting import QuadraticField, QuaternionData, nonexistence_criterion
from .weil import avoids_pset, enumerate_weil, norm_statuses, pset

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_INVALID = 2
EXIT_SCHEMA = 3


# argparse quotes a bad value whole in its own errors: a quoted value or a
# word this long is shown as an excerpt instead
_LONG_VALUE = re.compile(r"'[^']{30,}'|\S{30,}")


class _ArgumentParser(argparse.ArgumentParser):
    """An ArgumentParser whose usage errors quote input as `excerpt` does.
    Subcommand parsers inherit the class, so every usage error passes here."""

    def error(self, message):
        super().error(_LONG_VALUE.sub(lambda m: excerpt(m.group().strip("'")),
                                      message))


def _add_common(sub):
    sub.add_argument("--field-order", type=int, required=True, metavar="Q",
                     help="the odd prime q")
    sub.add_argument("--json", action="store_true", help="emit machine-readable JSON")


# the options that several subcommands take: flag -> argparse keywords,
# an option without a default being required
_OPTIONS = {"--ram1": {}, "--ram2": {}, "--y": {}, "--p": {},
            "--radicand": {"help": "monic square-free radical of K"},
            "--eps": {"type": int, "default": 1}}

# the polynomial options, by dest, in the order `main` parses them
_POLYNOMIALS = ("ram1", "ram2", "y", "p", "radicand", "n_poly")


def _add_options(sub, *flags, **keywords):
    """Add the `_OPTIONS` named by flags to sub, in order; keywords
    override the table's."""
    for flag in flags:
        kw = dict(_OPTIONS[flag], **keywords)
        sub.add_argument(flag, required="default" not in kw, **kw)


def build_parser():
    parser = _ArgumentParser(
        prog="dscurves",
        description="Exact-arithmetic search and certification of Hasse-principle "
                    "violations for quaternionic curves over F_q(t).")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("wset", help="list the admissible Weil quadratics for y")
    _add_common(p)
    _add_options(p, "--y")

    p = subs.add_parser("pcheck", help="test whether p avoids the excluded-prime set of y")
    _add_common(p)
    _add_options(p, "--y", "--p")

    p = subs.add_parser("pset", help="compute the full excluded-prime set of y")
    _add_common(p)
    _add_options(p, "--y")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the factorization randomness")

    p = subs.add_parser("criterion", help="evaluate the global non-existence criterion")
    _add_common(p)
    _add_options(p, "--ram1", "--ram2", "--y", "--radicand", "--eps")

    p = subs.add_parser("local", help="run the local-points battery for K")
    _add_common(p)
    _add_options(p, "--ram1", "--ram2", "--radicand", "--eps")

    p = subs.add_parser("certify", help="produce a Hasse-violation certificate")
    _add_common(p)
    _add_options(p, "--ram1", "--ram2", "--y")
    p.add_argument("--n-poly", default="1")
    _add_options(p, "--eps")
    p.add_argument("--out", help="path for the certificate JSON (default: stdout)")

    p = subs.add_parser("verify", help="re-check a certificate file")
    p.add_argument("cert", help="path to a certificate JSON file")

    p = subs.add_parser("search", help="search (ram1, ram2) pairs violating the Hasse principle")
    _add_common(p)
    p.add_argument("--max-deg1", type=int, required=True)
    p.add_argument("--max-deg2", type=int, required=True)
    _add_options(p, "--y", default="t")
    p.add_argument("--threads", type=int, default=1,
                   help="worker processes for certification, at most %d"
                   % MAX_WORKERS)
    return parser


def cmd_wset(args):
    rows = []
    for w in enumerate_weil(args.y):
        disc = w.discriminant
        reason = ("odd discriminant degree" if disc.degree % 2 == 1
                  else "non-square leading coefficient")
        rows.append({"a1": format_poly(w.a1), "mu": w.mu,
                     "minimal_poly": str(w), "discriminant": format_poly(disc),
                     "classification": reason})
    if args.json:
        write_canonical_json({"field_order": args.field_order,
                              "y": format_poly(args.y), "weil": rows}, sys.stdout)
    else:
        for row in rows:
            print("%s  disc=%s (%s)" % (row["minimal_poly"], row["discriminant"],
                                        row["classification"]))
        print("total: %d" % len(rows))
    return EXIT_OK


def cmd_pcheck(args):
    y, p = args.y, args.p
    statuses = list(norm_statuses(p, y))
    excluded = avoids_pset(statuses)
    if args.json:
        # only the JSON form prints norm degrees, and builds the norms, one
        # per orbit
        rows = [{"weil": str(entry.source), "norm_degree": entry.value.degree,
                 "status": status} for entry, status in statuses]
        write_canonical_json({"field_order": args.field_order, "y": format_poly(y),
                              "p": format_poly(p), "excluded": excluded,
                              "entries": rows}, sys.stdout)
    else:
        for entry, status in statuses:
            print("%-40s %s" % (entry.source, status))
        print("p = %s is %s the excluded-prime set of y = %s"
              % (format_poly(p), "outside" if excluded else "inside", format_poly(y)))
    return EXIT_OK if excluded else EXIT_FALSE


def cmd_pset(args):
    primes = pset(args.y, seed=args.seed)
    if args.json:
        write_canonical_json({"field_order": args.field_order,
                              "y": format_poly(args.y),
                              "seed": args.seed,
                              "pset": [format_poly(p) for p in primes]},
                             sys.stdout)
    else:
        for p in primes:
            print(format_poly(p))
        print("total: %d" % len(primes))
    return EXIT_OK


def cmd_criterion(args):
    D = QuaternionData(ram1=args.ram1, ram2=args.ram2)
    K = QuadraticField(eps=args.eps, radical=args.radicand)
    report = nonexistence_criterion(D, args.y, K)
    payload = dict(report.to_dict(), failures=list(report.failures))
    if args.json:
        write_canonical_json(payload, sys.stdout)
    else:
        for key in ("field_splits", "y_ramified", "ram1_excluded",
                    "ram2_excluded", "mu_obstruction"):
            print("%-16s %s" % (key, payload[key]))
        if report.ok:
            print("criterion holds: no global points over %s" % K)
        else:
            print("criterion fails: %s" % "; ".join(report.failures))
    return EXIT_OK if report.ok else EXIT_FALSE


def cmd_local(args):
    D = QuaternionData(ram1=args.ram1, ram2=args.ram2)
    report = local_all(D, QuadraticField(eps=args.eps, radical=args.radicand))
    if args.json:
        write_canonical_json(report.to_dict(), sys.stdout)
    else:
        print("infinity        %s" % ("ok" if report.infinity_ok else "FAIL"))
        for name, ok, mu in (("ram1", report.ram1_ok, report.ram1_mu),
                             ("ram2", report.ram2_ok, report.ram2_mu)):
            extra = "" if mu is None else " (mu=%d)" % mu
            print("%-15s %s%s" % (name, "ok" if ok else "FAIL", extra))
        for w in report.witnesses:
            print("l=%-20s witness a=%s, c=%d" % (format_poly(w.l), format_poly(w.a), w.c))
        for l in report.unwitnessed:
            print("l=%-20s NO WITNESS" % format_poly(l))
        if report.fast_m is not None and report.witness_cutoff < report.lambda_cutoff:
            print("degrees %d..%d: by uniform bound m=%d"
                  % (report.witness_cutoff + 1, report.lambda_cutoff, report.fast_m))
        print("degrees > %d: by degree bound" % report.lambda_cutoff)
        print("local battery: %s" % ("all places OK" if report.ok else "FAILED"))
    return EXIT_OK if report.ok else EXIT_FALSE


def cmd_certify(args):
    D = QuaternionData(ram1=args.ram1, ram2=args.ram2)
    cert = hasse_certificate(D, args.y, args.n_poly, args.eps)
    if args.out:
        try:
            with open(args.out, "w", newline="\n") as fh:
                write_canonical_json(cert.data, fh)
        except OSError as exc:
            print("cannot write certificate: %s" % exc, file=sys.stderr)
            return EXIT_INVALID
        print("certificate written to %s: %s" % (args.out, cert.verdict))
    else:
        write_canonical_json(cert.data, sys.stdout)
    return EXIT_OK if cert.valid else EXIT_FALSE


def cmd_verify(args):
    try:
        with open(args.cert) as fh:
            data = json.load(fh)
    # ValueError covers bad JSON and bytes that are not UTF-8
    except (OSError, ValueError, RecursionError) as exc:
        print("cannot read certificate: %s" % exc, file=sys.stderr)
        return EXIT_SCHEMA
    try:
        code, failures = verify_certificate(data)
    except SchemaError as exc:
        print("schema error: %s" % exc, file=sys.stderr)
        return EXIT_SCHEMA
    if code == 0:
        print("certificate verified: VALID")
    else:
        for msg in failures:
            print("FAIL %s" % msg)
    return code


def cmd_search(args):
    n_candidates, results = search(args.y, args.max_deg1, args.max_deg2,
                                   workers=args.threads)
    # certificates arrive one at a time; only the VALID ones that --json
    # prints are kept, and names otherwise
    valid, rejected = [], []
    for a, b, d in results:
        if d["verdict"] == VALID:
            valid.append((a, b, d if args.json else None))
        else:
            rejected.append((a, b))
    if args.json:
        write_canonical_json({
            "field_order": args.field_order, "y": format_poly(args.y),
            "max_deg1": args.max_deg1, "max_deg2": args.max_deg2,
            "triples": [{"ram1": a, "ram2": b, "certificate": d}
                        for a, b, d in valid],
        }, sys.stdout)
    else:
        for a, b, _ in valid:
            print("(%d, %s, %s)  VALID" % (args.field_order, a, b))
        for a, b in rejected:
            print("(%d, %s, %s)  rejected at certification"
                  % (args.field_order, a, b))
        print("found %d violating pair(s) out of %d candidate(s)"
              % (len(valid), n_candidates))
    return EXIT_OK


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # each polynomial option present becomes a Poly over F_q, once
        for dest in _POLYNOMIALS:
            text = getattr(args, dest, None)
            if text is None:
                continue
            try:
                setattr(args, dest, parse_poly(text, args.field_order))
            except ParseError as exc:
                raise InvalidInput("bad %s %s: %s" % (
                    dest.replace("_", "-"), excerpt(text), exc)) from exc
        return globals()["cmd_" + args.command](args)
    except InvalidInput as exc:
        print("invalid input: %s" % exc, file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
