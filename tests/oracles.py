"""Exact oracles shared by the test modules."""

from dscurves.fpoly import Poly, monic_irreducibles
from dscurves.splitting import QuaternionData
from dscurves.weil import QuadExtElem, exponent_n, ext_pow


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def mobius(m):
    out = 1
    for p in _prime_divisors(m):
        if m % (p * p) == 0:
            return 0
        out = -out
    return out


def gauss_irreducible_count(q, n):
    """Gauss's count (1/n) sum_{d|n} mu(d) q^{n/d} of monic irreducibles of
    degree n over F_q: the count oracle of the sieve `monic_irreducibles`."""
    total = sum(mobius(d) * q ** (n // d) for d in range(1, n + 1) if n % d == 0)
    return total // n


def frobenius_test_element(w):
    """pi^(2n) - y^n computed exactly in A[pi], n the Frobenius exponent:
    with `weil.norm`, the per-entry oracle of `weil.dset`'s norms."""
    q = w.q
    n = exponent_n(q, 2)
    pi = QuadExtElem(u=Poly.zero(q), v=Poly.one(q), modulus=w)
    power = ext_pow(pi, 2 * n)
    return QuadExtElem(u=power.u - w.y ** n, v=power.v, modulus=w)


def window_Ds(q, max_deg1, max_deg2):
    """Every pair of distinct primes with deg ram1 <= max_deg1 and
    deg ram2 <= max_deg2."""
    return [QuaternionData(ram1=p, ram2=s)
            for d1 in range(1, max_deg1 + 1) for p in monic_irreducibles(q, d1)
            for d2 in range(1, max_deg2 + 1) for s in monic_irreducibles(q, d2)
            if p != s]
