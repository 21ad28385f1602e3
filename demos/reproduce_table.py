#!/usr/bin/env python3
"""Reproduce the six Hasse-principle-violation triples.

For each (q, p, q') the script builds the certificate at n = 1 with the
first admissible eps, re-verifies it from its own JSON, and prints the
headline facts: which ramified prime avoids the excluded-prime set, the
mu-witnesses at the ramified places, and how the finite places are covered.
It exits 1 unless every verdict is VALID and every re-check exits 0.
"""

import json
import sys
import time

from dscurves import (QuaternionData, admissible_eps_set, hasse_certificate,
                      parse_poly, verify_certificate)
from dscurves.fpoly import Poly

TRIPLES = [
    (3, "t^3+t^2+t+2", "t+1"),
    (3, "t^4+t^3+2t+1", "t^2+1"),
    (3, "t^5+2t+1", "t+2"),
    (5, "t^3+t^2+4t+1", "t+2"),
    (5, "t^4+2", "t^2+t+1"),
    (7, "t^3+2", "t+3"),
]

all_valid = True
for q, ptxt, stxt in TRIPLES:
    t0 = time.time()
    D = QuaternionData(ram1=parse_poly(ptxt, q), ram2=parse_poly(stxt, q))
    y = parse_poly("t", q)
    one = Poly.one(q)
    eps = admissible_eps_set(one)[0]
    cert = hasse_certificate(D, y, one, eps)
    code, failures = verify_certificate(json.loads(cert.to_json()))
    all_valid = all_valid and cert.valid and code == 0
    local = cert.data["local"]
    print("(q=%d, p=%s, q'=%s)" % (q, ptxt, stxt))
    print("  verdict %s, independent re-check exit %d" % (cert.verdict, code))
    print("  excluded ramified prime: %s" % cert.data["criterion"]["excluded_prime"])
    print("  mu-witnesses: ram1 -> %s, ram2 -> %s"
          % (local["ram1_mu"], local["ram2_mu"]))
    print("  %d explicit witnesses up to degree %d, uniform bound m = %s,"
          " degree bound above %d"
          % (len(local["witnesses"]), local["witness_cutoff"],
             local["fast_m"], local["lambda_cutoff"]))
    print("  %.2f s" % (time.time() - t0))
    print()

sys.exit(0 if all_valid else 1)
