#!/usr/bin/env python3
"""A short tour of the excluded-prime machinery at q = 3, y = t.

Walks through the Weil quadratics pi^2 + a1*pi + mu*t, the norm set
D(y) = { N(pi^(2n) - y^n) }, and the resulting prime set P(y).  A prime
outside P(y) is what the non-existence criterion needs for its third
hypothesis.
"""

from dscurves import (dset, enumerate_weil, exponent_n, format_poly,
                      p_excluded, parse_poly, pset)

q = 3
y = parse_poly("t", q)
n = exponent_n(q, 2)
print("q = %d, y = %s, exponent n = %d" % (q, format_poly(y), n))
print()

# every pair (a1, mu) with non-square discriminant at infinity
print("Weil quadratics:")
for w in enumerate_weil(y):
    print("  %s   disc = %s" % (w, format_poly(w.discriminant)))
print()

# pi^(2n) = y^n exactly when a1 = 0 here, so those norms vanish
print("norm set D(y):")
for entry in dset(y):
    if entry.is_zero:
        print("  %s -> 0" % entry.source)
    else:
        print("  %s -> degree %d" % (entry.source, entry.value.degree))
print()

primes = pset(y)
print("P(y) = {%s}" % ", ".join(format_poly(p) for p in primes))
print()

for text in ("t^3+t^2+t+2", "t^4+t^3+2t+1", "t^5+2t+1", "t+1"):
    p = parse_poly(text, q)
    verdict = "avoids" if p_excluded(p, y) else "lies in"
    print("%s %s P(y)" % (text, verdict))
