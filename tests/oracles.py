"""Exact oracles shared by the test modules."""

from dataclasses import dataclass

from dscurves.fpoly import Poly, monic_irreducibles, power
from dscurves.splitting import QuaternionData
from dscurves.weil import WeilPoly, exponent_n


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


class ModulusMismatch(ValueError):
    """Quadratic-extension elements built over different minimal polynomials."""


@dataclass(frozen=True)
class QuadExtElem:
    """u + v*pi in A[pi] = A[X]/(X^2 + a1*X + mu*y)."""

    u: Poly
    v: Poly
    modulus: WeilPoly


def ext_mul(x, z):
    """Product reduced to the basis {1, pi} via pi^2 = -a1*pi - mu*y."""
    if x.modulus != z.modulus:
        raise ModulusMismatch("elements over different quadratic extensions")
    w = x.modulus
    vv = x.v * z.v
    u = x.u * z.u - w.const_term * vv
    v = x.u * z.v + x.v * z.u - w.a1 * vv
    return QuadExtElem(u=u, v=v, modulus=w)


def ext_pow(x, e):
    """x^e in A[pi] by square-and-multiply over `ext_mul`."""
    q = x.modulus.q
    return power(x, e, ext_mul,
                 QuadExtElem(u=Poly.one(q), v=Poly.zero(q), modulus=x.modulus))


def norm(x):
    """N(u + v*pi) = u^2 - a1*u*v + mu*y*v^2, the product with the conjugate."""
    w = x.modulus
    return x.u * x.u - w.a1 * x.u * x.v + w.const_term * x.v * x.v


def pi_power_trace(w, e):
    """Tr(pi^e) = 2u - a1*v for pi^e = u + v*pi computed by `ext_pow`: the
    oracle of the Lucas ladder in `weil.dset`."""
    q = w.q
    pe = ext_pow(QuadExtElem(u=Poly.zero(q), v=Poly.one(q), modulus=w), e)
    return 2 * pe.u - w.a1 * pe.v


def frobenius_test_element(w):
    """pi^(2n) - y^n computed exactly in A[pi], n the Frobenius exponent:
    with `norm`, the per-entry oracle of `weil.dset`'s norms."""
    q = w.q
    n = exponent_n(q, 2)
    pi = QuadExtElem(u=Poly.zero(q), v=Poly.one(q), modulus=w)
    pe = ext_pow(pi, 2 * n)
    return QuadExtElem(u=pe.u - w.y ** n, v=pe.v, modulus=w)


def window_Ds(q, max_deg1, max_deg2):
    """Every pair of distinct primes with deg ram1 <= max_deg1 and
    deg ram2 <= max_deg2."""
    return [QuaternionData(ram1=p, ram2=s)
            for d1 in range(1, max_deg1 + 1) for p in monic_irreducibles(q, d1)
            for d2 in range(1, max_deg2 + 1) for s in monic_irreducibles(q, d2)
            if p != s]
