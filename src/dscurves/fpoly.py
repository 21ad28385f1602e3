"""Univariate polynomial arithmetic over F_q: the ring A = F_q[t].

Polynomials are immutable dense coefficient tuples (index i = coefficient of
t^i).  The zero polynomial is the empty tuple and reports degree -1.
Products are exact at every field order.  A product of two short factors
runs schoolbook on Python ints; any other is one Kronecker-substituted
big-int product, whose factors go in and come out through one `struct`
call each, in slots of 1, 2, 4 or 8 bytes (see `_mul_coeffs`).  Sums,
differences, negation and scalar products are one comprehension over the
coefficients each.

Beyond ring arithmetic this module provides one square-and-multiply loop
for every power, Ben-Or's irreducibility test (the first step of
distinct-degree factorization), a sieve of monic irreducibles, seeded
Cantor-Zassenhaus factorization, the residue symbol by reciprocity,
valuations and the CLI's grammar.
"""

import itertools
import operator
import random
import re
import struct
from dataclasses import dataclass
from functools import lru_cache

from . import ffield
from .errors import FieldMismatch, InvalidInput, ParseError, excerpt

# a product with len(a) * len(b) at most this runs schoolbook; any other
# is one Kronecker product.  Kronecker time over schoolbook time, CPython
# 3.11 on one core of a 2-vCPU machine at q = 3, 7 and 3037000493 (below 1
# Kronecker is faster): schoolbook wins up to 24 pairs (1x8 1.3-1.9, 2x12
# 1.05-1.15, 4x6 1.0), 25-36 pairs break even at q = 3 and 7 (5x6 and 3x10
# 0.9-1.0, 6x6 0.85, 1x30 1.1-1.3), and Kronecker wins above (7x7 0.7-0.8,
# 2x30 0.8; at q = 3037000493 from about 50 pairs)
_SCHOOLBOOK_MAX = 30

# struct code of an unsigned slot of 1, 2, 4 and 8 bytes
_SLOT_CODES = {1: "B", 2: "H", 4: "I", 8: "Q"}


class Poly:
    """Element of F_q[t], canonical dense little-endian coefficients."""

    __slots__ = ("q", "coeffs")

    def __init__(self, q, coeffs=()):
        ffield.validate_field_order(q)
        cs = [c % q for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def _raw(cls, q, coeffs):
        # internal fast path: coeffs already canonical
        self = object.__new__(cls)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    def __reduce__(self):
        return type(self)._raw, (self.q, self.coeffs)

    @classmethod
    def zero(cls, q):
        return cls(q, ())

    @classmethod
    def one(cls, q):
        return cls(q, (1,))

    @classmethod
    def constant(cls, q, c):
        return cls(q, (c,))

    @classmethod
    def t(cls, q):
        return cls(q, (0, 1))

    @property
    def degree(self):
        """Degree; -1 is the sentinel for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def leading_coeff(self):
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def is_monic(self):
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def monic(self):
        if self.is_zero or self.coeffs[-1] == 1:
            return self
        u = ffield.inv(self.coeffs[-1], self.q)
        return Poly._raw(self.q, tuple((c * u) % self.q for c in self.coeffs))

    def sort_key(self):
        """(degree, coefficient vector low index first): canonical ordering key."""
        return (len(self.coeffs), self.coeffs)

    def _check(self, other):
        if not isinstance(other, Poly):
            raise TypeError("expected Poly, got %r" % type(other).__name__)
        if other.q != self.q:
            raise FieldMismatch("operands over F_%d and F_%d" % (self.q, other.q))

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.q == other.q and self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.q, self.coeffs))

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other):
        self._check(other)
        a, b, q = self.coeffs, other.coeffs, self.q
        if len(a) < len(b):
            a, b = b, a
        cs = [(x + y) % q for x, y in zip(a, b)]
        if len(a) > len(b):
            return Poly._raw(q, tuple(cs) + a[len(b):])
        while cs and cs[-1] == 0:
            cs.pop()
        return Poly._raw(q, tuple(cs))

    def __sub__(self, other):
        self._check(other)
        a, b, q = self.coeffs, other.coeffs, self.q
        cs = [(x - y) % q for x, y in zip(a, b)]
        if len(a) > len(b):
            return Poly._raw(q, tuple(cs) + a[len(b):])
        if len(a) < len(b):
            return Poly._raw(q, tuple(cs + [-y % q for y in b[len(a):]]))
        while cs and cs[-1] == 0:
            cs.pop()
        return Poly._raw(q, tuple(cs))

    def __neg__(self):
        q = self.q
        return Poly._raw(q, tuple([-c % q for c in self.coeffs]))

    def __mul__(self, other):
        if isinstance(other, int):
            q = self.q
            c = other % q
            if c == 0:
                return Poly._raw(q, ())
            if c == 1:
                return self
            return Poly._raw(q, tuple([x * c % q for x in self.coeffs]))
        self._check(other)
        return Poly._raw(self.q, _mul_coeffs(self.coeffs, other.coeffs, self.q))

    __rmul__ = __mul__

    def __pow__(self, e):
        return power(self, e, operator.mul, Poly.one(self.q))

    def __divmod__(self, other):
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q = self.q
        dg = other.degree
        if self.degree < dg:
            return Poly.zero(q), self
        rem = list(self.coeffs)
        g = other.coeffs
        inv_lc = ffield.inv(g[-1], q)
        quot = [0] * (len(rem) - dg)
        for i in range(len(rem) - 1, dg - 1, -1):
            c = rem[i] % q
            if c:
                factor = (c * inv_lc) % q
                quot[i - dg] = factor
                base = i - dg
                for j in range(dg + 1):
                    rem[base + j] -= factor * g[j]
        rs = [c % q for c in rem[:dg]]
        while rs and rs[-1] == 0:
            rs.pop()
        # quot's top coefficient is lc(self)/lc(other), never 0
        return Poly._raw(q, tuple(quot)), Poly._raw(q, tuple(rs))

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def derivative(self):
        q = self.q
        cs = tuple((i * c) % q for i, c in enumerate(self.coeffs[1:], start=1))
        return Poly(q, cs)

    def __repr__(self):
        return "%s(q=%d, %s)" % (type(self).__name__, self.q, format_poly(self))


class Prime(Poly):
    """A monic irreducible Poly, proven once: made only by the sieve
    `monic_irreducibles` and `require_monic_irreducible`, so its holder,
    pickled or not, tests it no more.  Arithmetic returns plain Polys."""

    __slots__ = ()

    def __init__(self, q, coeffs=()):
        raise TypeError("only the sieve or require_monic_irreducible makes a Prime")


def _mul_coeffs(a, b, q):
    """Coefficients of the product of two canonical coefficient tuples.

    The Kronecker branch (von zur Gathen & Gerhard, Modern Computer Algebra,
    8.4) packs each tuple into one int, coefficient i in the k-byte slot i,
    multiplies once and reads slot i back mod q.  Slot i of the product holds
    the exact sum of at most min(len a, len b) products c * d with
    0 <= c, d < q, so it is at most min(len) * (q-1)^2 < 2^(8k): no carry
    crosses a slot, at any q.

    k is that bound's byte length rounded up to 1, 2, 4 or 8, so one
    `struct.pack` with the little-endian code B, H, I or Q packs a whole
    factor and one `struct.unpack` reads every slot back; the "<" prefix
    fixes size and byte order on every platform, and `from_bytes` and
    `to_bytes` read and write those bytes little-endian to match.  A bound
    of 2^64 or more (q above 2^32 at one coefficient, above about 2^26 at
    4600) keeps slots of exactly k bytes, packed and read one coefficient
    at a time.  Before Kronecker, low zeros are split off, (t^i a')(t^j b')
    = t^(i+j) a'b', so a product by a monomial such as y^k, y = t, is a shift."""
    if not a or not b:
        return ()
    if len(a) > len(b):
        a, b = b, a
    if len(a) * len(b) <= _SCHOOLBOOK_MAX:
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return tuple([c % q for c in out])
    if not a[0] or not b[0]:
        i = next(k for k, c in enumerate(a) if c)
        j = next(k for k, c in enumerate(b) if c)
        return (0,) * (i + j) + _mul_coeffs(a[i:], b[j:], q)
    k = ((len(a) * (q - 1) ** 2).bit_length() + 7) // 8
    size = len(a) + len(b) - 1
    if k <= 8:
        k = 1 << (k - 1).bit_length()
        fmt = "<%d" + _SLOT_CODES[k]
        packed_a = int.from_bytes(struct.pack(fmt % len(a), *a), "little")
        packed_b = int.from_bytes(struct.pack(fmt % len(b), *b), "little")
        slots = struct.unpack(fmt % size,
                              (packed_a * packed_b).to_bytes(size * k, "little"))
    else:
        packed_a = int.from_bytes(b"".join([c.to_bytes(k, "little") for c in a]),
                                  "little")
        packed_b = int.from_bytes(b"".join([c.to_bytes(k, "little") for c in b]),
                                  "little")
        prod = (packed_a * packed_b).to_bytes(size * k, "little")
        slots = [int.from_bytes(prod[i:i + k], "little")
                 for i in range(0, size * k, k)]
    return tuple([c % q for c in slots])


def poly_gcd(f, g):
    """Monic greatest common divisor."""
    while not g.is_zero:
        f, g = g, f % g
    return f.monic()


def power(x, e, mul, one):
    """x^e by square-and-multiply, for any product mul with identity one:
    the one power loop behind `Poly.__pow__` and `powmod`."""
    if not isinstance(e, int) or e < 0:
        raise InvalidInput("a power needs a non-negative integer exponent, got "
                           + excerpt(e))
    result = one
    while e:
        if e & 1:
            result = mul(result, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return result


def powmod(f, e, m):
    """f^e mod m; requires deg m >= 1."""
    if m.degree < 1:
        raise InvalidInput("powmod modulus must have degree >= 1")
    return power(f % m, e, lambda a, b: (a * b) % m, Poly.one(f.q) % m)


def is_irreducible(f):
    """Ben-Or's test (von zur Gathen & Gerhard, Modern Computer Algebra,
    14.2): a reducible f of degree n has an irreducible factor of some degree
    d <= n/2, which divides t^(q^d) - t, so distinct-degree factorization
    yields it first; an irreducible f comes out whole, as (f, n)."""
    if f.degree < 1:
        raise InvalidInput("irreducibility is undefined for constants")
    return next(_distinct_degree(f.monic()))[1] == f.degree


def require_monic_irreducible(f, name):
    """f as a Prime, proved by one Ben-Or test unless it is one already;
    InvalidInput naming the argument and quoting f if it is not."""
    if isinstance(f, Prime):
        return f
    if not f.is_monic or f.degree < 1 or not is_irreducible(f):
        raise InvalidInput("%s must be a monic irreducible, got %s"
                           % (name, excerpt(format_poly(f))))
    return Prime._raw(f.q, f.coeffs)


# largest q^degree that monic_irreducibles sieves, one byte per slot.
# Measured on CPython 3.11, one core of a 2-vCPU machine, at 7-9e-6 s per
# slot: 3^10 takes 0.44 s and 5^7 0.39 s; 7^6 (0.56 s), 3^11 (1.4 s) and
# 3^12 (4.7 s) are refused.  Tier-1, the demos and the benchmark workloads
# sieve at most 5^6, and it admits the cutoff q^2 of every pair of primes
# of degree 1 that check_pair_count admits
_MAX_SIEVE = 10 ** 5


def power_exceeds(q, k, bound, factor=1):
    """True iff factor * q^k > bound, for factor >= 1.  q^k >= 2^k, so a k
    of bound's bit length or more exceeds it without computing the power."""
    return k >= bound.bit_length() or factor * q ** k > bound


@lru_cache(maxsize=None)
def monic_irreducibles(q, degree):
    """All monic irreducibles of the given degree, as Primes, in
    lexicographic order of coefficient vectors (low degree index first).

    A sieve: slot i of a bytearray of q^degree slots stands for the monic
    t^degree + c_{degree-1} t^(degree-1) + ... + c_0 whose low coefficients
    (c_0, ..., c_{degree-1}), read as a base-q numeral with c_0 most
    significant, equal i; that is the order above.  A reducible one has a
    monic irreducible factor f of degree e <= degree/2, so marking f*g for
    every such f and every monic g of degree degree - e leaves exactly the
    irreducibles unmarked."""
    if degree < 1:
        raise InvalidInput("degree must be >= 1")
    if power_exceeds(q, degree, _MAX_SIEVE):
        raise InvalidInput("monic irreducibles of degree %d at q = %d: "
                           "q^degree exceeds %d" % (degree, q, _MAX_SIEVE))
    composite = bytearray(q ** degree)
    weights = [q ** (degree - 1 - i) for i in range(degree)]
    for e in range(1, degree // 2 + 1):
        for f in monic_irreducibles(q, e):
            for low in itertools.product(range(q), repeat=degree - e):
                prod = _mul_coeffs(f.coeffs, low + (1,), q)
                composite[sum(map(operator.mul, prod, weights))] = 1
    return tuple(Prime._raw(q, low + (1,))
                 for low, marked in zip(itertools.product(range(q), repeat=degree),
                                        composite) if not marked)


def coeff_tuples(q, maxdeg=None):
    """The coefficient tuples of the polynomials of degree <= maxdeg, of
    every degree when maxdeg is None: the empty tuple of zero first, then
    by degree, and lexicographically within a degree, coefficient 0 most
    significant.  This is the one enumeration order of the program."""
    yield ()
    for deg in itertools.count() if maxdeg is None else range(maxdeg + 1):
        yield from itertools.product(*[range(q)] * deg, range(1, q))


def polys_of_degree_at_most(q, maxdeg):
    """All polynomials with degree <= maxdeg, in `coeff_tuples` order."""
    ffield.validate_field_order(q)
    for cs in coeff_tuples(q, maxdeg):
        yield Poly._raw(q, cs)


@dataclass(frozen=True)
class Factorization:
    """unit * prod(factors[i][0] ** factors[i][1]) reproduces the input."""

    unit: int
    factors: tuple

    def product(self, q):
        acc = Poly.constant(q, self.unit)
        for p, m in self.factors:
            acc = acc * p ** m
        return acc


def _squarefree_parts(f):
    """Yield (monic squarefree factor, multiplicity) pairs for a monic f
    of degree >= 1; char-p aware.  Once w is used up, c is g(t)^q in
    characteristic q, g read off every q-th coefficient (each coefficient
    is its own q-th root); when f' = 0, c is f itself and only that step
    runs."""
    q = f.q
    c = poly_gcd(f, f.derivative())
    w = f // c
    i = 1
    while w.degree > 0:
        y = poly_gcd(w, c)
        fac = w // y
        if fac.degree > 0:
            yield fac, i
        w, c = y, c // y
        i += 1
    if c.degree > 0:
        for g, m in _squarefree_parts(Poly(q, c.coeffs[::q])):
            yield g, m * q


def _distinct_degree(f):
    """Split a monic squarefree f into (product of degree-d irreducibles, d),
    d ascending.  For any monic f the first pair is (f, deg f) iff f is
    irreducible: `is_irreducible` reads only that pair."""
    q = f.q
    x = Poly.t(q)
    h = x % f
    d = 0
    while f.degree > 0:
        d += 1
        if 2 * d > f.degree:
            yield f, f.degree
            return
        h = powmod(h, q, f)
        g = poly_gcd(h - x, f)
        if g.degree > 0:
            yield g, d
            f = f // g
            h = h % f


def _equal_degree(f, d, rng):
    """Cantor-Zassenhaus split of a product of degree-d irreducibles (odd q)."""
    if f.degree == d:
        return [f]
    q = f.q
    exp = (q ** d - 1) // 2
    while True:
        r = Poly(q, [rng.randrange(q) for _ in range(f.degree)])
        if r.degree < 1:
            continue
        g = poly_gcd(r, f)
        if 0 < g.degree < f.degree:
            break
        s = powmod(r, exp, f) - Poly.one(q)
        g = poly_gcd(s, f)
        if 0 < g.degree < f.degree:
            break
    return _equal_degree(g, d, rng) + _equal_degree(f // g, d, rng)


def factor(f, seed=0):
    """Complete factorization; deterministic for a fixed seed."""
    if f.is_zero:
        raise InvalidInput("cannot factor the zero polynomial")
    q = f.q
    unit = f.leading_coeff
    f = f.monic()
    rng = random.Random(seed)
    found = {}
    if f.degree > 0:
        for part, mult in _squarefree_parts(f):
            for prod, d in _distinct_degree(part):
                for p in _equal_degree(prod, d, rng):
                    found[p] = found.get(p, 0) + mult
    factors = tuple(sorted(found.items(), key=lambda it: it[0].sort_key()))
    return Factorization(unit=unit, factors=factors)


def is_squarefree(f):
    if f.is_zero:
        raise InvalidInput("squarefreeness is undefined at 0")
    if f.degree == 0:
        return True
    d = f.derivative()
    return (not d.is_zero) and poly_gcd(f, d).degree == 0


def residue_symbol(a, p):
    """Quadratic residue symbol (a/p) in {-1, 0, +1} for irreducible p, by
    Euclid's algorithm and reciprocity (Rosen, Number Theory in Function
    Fields, ch. 3): with chi the quadratic character of F_q, sgn the leading
    coefficient and u = sgn(r)^(deg p) sgn(p)^(deg r) (-1)^(deg r deg p),
    (r/p) = chi(u) (p mod r / r) for coprime r, p; chi(u) if r is constant."""
    q = p.q
    r, unit = a % p, 1
    while r:
        if p.degree % 2:
            unit = unit * r.coeffs[-1] % q
        if r.degree % 2:
            unit = unit * (-p.coeffs[-1] if p.degree % 2 else p.coeffs[-1]) % q
        if not r.degree:
            return 1 if pow(unit, (q - 1) // 2, q) == 1 else -1
        p, r = r, p % r
    return 0


def valuation(f, p):
    """Largest k with p^k | f, by repeated exact division."""
    if f.is_zero:
        raise InvalidInput("valuation is undefined at 0")
    k = 0
    while True:
        quot, rem = divmod(f, p)
        if not rem.is_zero:
            return k
        f = quot
        k += 1


# ---------------------------------------------------------------------------
# text grammar (shared with the CLI)

_TERM = re.compile(r"(?:(\d+)\s*\*?\s*)?t(?:\s*\^\s*(\d+))?|(\d+)")
_SIGN = re.compile(r"\s*([+-])\s*")

# largest exponent parse_poly accepts: a term t^k allocates k coefficients,
# and this sits far above any degree dscurves reads or writes
_MAX_PARSE_DEGREE = 10 ** 5


def _bounded_int(digits, largest, what, pos):
    """int(digits) when it is at most largest, else ParseError.  The digit
    count is checked first, so no numeral too long for int() reaches it."""
    if len(digits.lstrip("0")) <= len(str(largest)):
        value = int(digits)
        if value <= largest:
            return value
    raise ParseError("%s out of range: at most %d" % (what, largest), pos)


def parse_poly(text, q):
    """Parse the term grammar `c*t^k | c t^k | t^k | t | c` or `[c0,c1,...]`."""
    ffield.validate_field_order(q)
    s = text.strip()
    if not s:
        raise ParseError("empty polynomial text", 0)
    if s.startswith("["):
        if not s.endswith("]"):
            raise ParseError("unterminated coefficient list", len(s) - 1)
        body = s[1:-1].strip()
        if not body:
            return Poly.zero(q)
        coeffs = []
        for part in body.split(","):
            part = part.strip()
            if not re.fullmatch(r"-?\d+", part):
                raise ParseError("bad coefficient " + excerpt(part), text.find(part))
            c = _bounded_int(part.lstrip("-"), q - 1, "coefficient",
                             text.find(part))
            coeffs.append(-c if part.startswith("-") else c)
        return Poly(q, coeffs)

    coeffs = {}
    pos = 0
    sign = 1
    m = _SIGN.match(s, pos)
    if m:  # optional leading sign
        sign = -1 if m.group(1) == "-" else 1
        pos = m.end()
    # s is stripped and _SIGN takes the blanks after a sign, so a term
    # starts at pos
    while True:
        m = _TERM.match(s, pos)
        if not m:
            raise ParseError("expected a term", pos)
        digits = m.group(3) or m.group(1)
        c = 1 if digits is None else _bounded_int(digits, q - 1, "coefficient", pos)
        if m.group(3) is not None:
            k = 0
        elif m.group(2) is None:
            k = 1
        else:
            k = _bounded_int(m.group(2), _MAX_PARSE_DEGREE, "exponent",
                             m.start(2))
        coeffs[k] = (coeffs.get(k, 0) + sign * c) % q
        pos = m.end()
        while pos < len(s) and s[pos].isspace():
            pos += 1
        if pos == len(s):
            break
        m = _SIGN.match(s, pos)
        if not m:
            raise ParseError("expected '+' or '-'", pos)
        sign = -1 if m.group(1) == "-" else 1
        pos = m.end()
    top = max(coeffs)
    return Poly(q, [coeffs.get(i, 0) for i in range(top + 1)])


def format_poly(f):
    """Canonical text: descending terms, e.g. t^3+t^2+2t+1; zero is '0'."""
    if f.is_zero:
        return "0"
    terms = []
    for i in range(f.degree, -1, -1):
        c = f.coeffs[i]
        if c == 0:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            head = "" if c == 1 else str(c)
            terms.append(head + ("t" if i == 1 else "t^%d" % i))
    return "+".join(terms)
