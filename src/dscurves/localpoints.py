"""Local-point battery: existence of points on the curve at every completion
of K, with explicit witnesses.

The three place classes are handled separately: infinity passes unless it
splits in K, the two ramified primes need a square-class witness, and the
other finite places discriminant witnesses (a, c) for x^2 - a*x + c*l.
Places of large degree need no witness (degree-bound lemma), and a uniform
bound m, when one exists, discharges every place of degree >= 2m + 1 so
explicit searches stop at degree 2m.

The search for m, the witness search and the witness check read one
table per ramified prime, with its squares, its units, the candidates a
and a^2 mod it for each, kept for the two primes of the current D.  The tables
and each place's set-up work on residues packed into ints, squared and
reduced on plain ints, with no `Poly` operation.  A witness's symbols at
the two primes come from the tables, and `Poly` arithmetic is left to what
they cannot decide: infinity, which `witness_ok` reads from the whole
discriminant and the search only where 2 deg a = deg l, and the valuation
where a symbol is zero.  The mu-witness rule, which runs before any table
exists, stays exact (`_nonsplit_disc`).
"""

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial

from . import ffield
from .errors import InvalidInput
from .fpoly import (Poly, _mul_coeffs, coeff_tuples, format_poly,
                    monic_irreducibles, valuation)
from .splitting import splits_quaternion
from .weil import nonsquare_at_infinity


@dataclass(frozen=True)
class LocalWitness:
    """Witness (a, c) that x^2 - a*x + c*l is non-split at ram1, ram2 and
    infinity, certifying points above l."""

    l: Poly
    a: Poly
    c: int


def _nonsplit_disc(D, disc):
    """True iff F(sqrt(disc)) is non-split at infinity, ram1 and ram2: the
    rule of `splits_quaternion` plus infinity, in exact arithmetic.  It is
    the mu-witness rule, and the witness rule that `witness_ok` and
    `witness_search` read from the residue tables instead."""
    return nonsquare_at_infinity(disc) and splits_quaternion(D, disc)


def witness_ok(D, w):
    """Re-check every witness invariant; no search involved.  c must be a
    reduced unit, 0 < c < q, as `witness_search` writes it.

    The rule is `_nonsplit_disc` for disc = a^2 - 4c*l: infinity by
    `nonsquare_at_infinity`, and each ramified prime's symbol from its
    table in `_tables(D)`, disc reduced packed and looked up in `squares`.
    Only a zero symbol needs more, the valuation of disc at that prime:
    an even one splits it, as in `splits_quaternion`."""
    if 2 * w.a.degree > w.l.degree:
        return False
    if not 0 < w.c < D.q:
        return False
    disc = w.a * w.a - 4 * w.c * w.l
    if not nonsquare_at_infinity(disc):
        return False
    for table in _tables(D):
        x = table.reduce(disc.coeffs)
        if x in table.squares or (not x and valuation(disc, table.r) % 2 == 0):
            return False
    return True


def mu_witness_ok(D, r, mu):
    """True iff mu is a reduced unit, 0 < mu < q, with neither the other
    ramified prime nor infinity split in F(sqrt(mu*r)), r a ramified prime
    of D.  r divides mu*r exactly once, so r ramifies in F(sqrt(mu*r)) and
    `_nonsplit_disc` reads only the other prime and infinity."""
    return 0 < mu < D.q and _nonsplit_disc(D, mu * r)


def ramified_mu(D, r):
    """First square class mu passing `mu_witness_ok`, or None."""
    for mu in ffield.square_class_reps(D.q):
        if mu_witness_ok(D, r, mu):
            return mu
    return None


def _answer(recorded, key, search, check):
    """The mu of a ramified prime or the witness of a place, key: search(key)
    when nothing is `recorded`, else the answer recorded under key if
    check accepts it, and None if not."""
    if recorded is None:
        return search(key)
    answer = recorded.get(key)
    return answer if answer is not None and check(answer) else None


def _local_ramified_prime(D, K, r, recorded):
    """(ok, mu-witness or None) above the ramified prime r: K splits D, so
    r is not split in K; it is inert, needing nothing, when it does not
    divide K's radical, and ramified otherwise."""
    if not (K.radical % r).is_zero:
        return True, None
    mu = _answer(recorded, r, partial(ramified_mu, D), partial(mu_witness_ok, D, r))
    return mu is not None, mu


def lambda_cutoff(D):
    """Largest degree at which a place can still need an explicit witness."""
    return 2 * (D.ram1.degree + D.ram2.degree) - 2


def witness_cutoff(D, m):
    """Largest degree needing an explicit witness when the uniform bound is
    m (None when no bound exists)."""
    cutoff = lambda_cutoff(D)
    return cutoff if m is None else min(2 * m, cutoff)


def lambda_set(D, max_degree):
    """Monic irreducibles other than the ramified primes up to max_degree,
    ordered by degree then lexicographically."""
    out = []
    for deg in range(1, max_degree + 1):
        for l in monic_irreducibles(D.q, deg):
            if l != D.ram1 and l != D.ram2:
                out.append(l)
    return out


class _Residues:
    """What the symbols at one ramified prime r read, packed and built on
    demand from coefficient tuples in `coeff_tuples` order, with no `Poly`
    operation per entry: r's nonzero squares, its units, the candidates a
    and a^2 mod r for each.

    `_tables(D)` names P, the table of the prime with more units, and S,
    the other's.  By CRT the symbols of a^2 + x at both primes depend on x
    mod each prime only: at P the symbol is one carry-free sum and one
    look-up in `squares`, at S one bit of a's mask, so the masks and the
    `index` of the units are built only once r plays S.

    A residue mod r is packed as one int, coefficient i in the `width`-bit
    slot i.  `add` sums two residues slot by slot, each sum below 2q, and
    subtracts q from every slot that reached q: a slot holding v reads
    v + 2^(width-1) - q after adding `bias`, below 2^width, so its top
    bit, collected by `high`, is set iff v >= q, and no carry crosses a
    slot.  `reduce` takes int coefficients of any size: it packs those
    below deg r, each mod q, and `add`s for each coefficient c of t^k,
    k >= deg r, the packed c*t^k mod r of row k, a row grown from one
    `Poly` remainder the first time degree k is met.  `square` squares a
    coefficient tuple on ints, by `fpoly._mul_coeffs`, and reduces it.
    Every entry is built from `coeff_tuples`, and `extend` keeps the
    candidates' tuples, so the tables, the witnesses of `witness_search`
    and `polys_of_degree_at_most` share one order.  u and -u have the same
    square, so only the units with leading coefficient at most (q - 1)/2
    are squared.
    """

    def __init__(self, r):
        q, d = r.q, r.degree
        self.q, self.r, self.d = q, r, d
        self.width = w = q.bit_length() + 1
        self.high = sum(1 << (k * w + w - 1) for k in range(d))
        self.bias = sum(((1 << (w - 1)) - q) << (k * w) for k in range(d))
        self.rows = []  # rows[k - d][c]: c*t^k mod r, packed
        self.units = [self.reduce(u) for u in coeff_tuples(q, d - 1) if u]
        self.squares = frozenset(self.square(u) for u in coeff_tuples(q, d - 1)
                                 if u and u[-1] <= q // 2)
        self.candidates, self.a2, self.masks = [], [], []
        self._masks = {}  # a^2 mod r, packed -> its mask, shared
        self._order = coeff_tuples(q)

    def add(self, x, y):
        """The packed sum of two packed residues mod r."""
        d = x + y
        return d - (((d + self.bias) & self.high) >> (self.width - 1)) * self.q

    def reduce(self, cs, scale=1):
        """scale * (sum of cs[k] t^k) mod r, packed, for any ints cs[k]."""
        q, d, rows = self.q, self.d, self.rows
        while len(rows) < len(cs) - d:
            t = (Poly._raw(q, (0,) * (d + len(rows)) + (1,)) % self.r).coeffs
            rows.append([self.reduce(t, c) for c in range(q)])
        x, add = 0, self.add
        for c in reversed(cs[:d]):
            x = x << self.width | c * scale % q
        for c, row in zip(cs[d:], rows):
            c = c * scale % q
            if c:
                x = add(x, row[c])
        return x

    def square(self, a):
        """a^2 mod r, packed, for a coefficient tuple a."""
        return self.reduce(_mul_coeffs(a, a, self.q))

    @cached_property
    def index(self):
        """Packed unit -> its bit in a mask."""
        return {u: j for j, u in enumerate(self.units)}

    def extend(self, count):
        """The candidates below `count`, as coefficient tuples, and a^2 mod
        r for each."""
        if count > len(self.candidates):
            more = list(itertools.islice(self._order, count - len(self.candidates)))
            self.candidates += more
            self.a2 += map(self.square, more)

    def extend_masks(self, count):
        """The masks of the candidates below `count`: bit j of a's mask is
        set iff a^2 + units[j] is a nonzero non-square mod r, bit
        len(units) + j iff it is 0 (0 is not in `squares`)."""
        if count <= len(self.masks):
            return
        self.extend(count)
        n = len(self.units)
        for x in self.a2[len(self.masks):count]:
            if x not in self._masks:
                sums = [self.add(x, u) for u in self.units]
                self._masks[x] = sum(1 << (j if d else n + j)
                                     for j, d in enumerate(sums)
                                     if d not in self.squares)
            self.masks.append(self._masks[x])


# the tables of the two primes of the current D: a search's pairs come
# grouped by ram1, so ram1's table lasts from one D to the next
@lru_cache(maxsize=2)
def _residues(r):
    return _Residues(r)


def _tables(D):
    """(P, S): the tables of D's prime with more units, ram1 on a tie, and
    of the other."""
    one, two = _residues(D.ram1), _residues(D.ram2)
    return (one, two) if D.ram1.degree >= D.ram2.degree else (two, one)


def witness_search(D, l):
    """First witness in the deterministic order (c ascending, a by degree
    then lex, deg a <= deg l // 2); None when that space is exhausted.

    It decides the rule of `_nonsplit_disc` for disc = a^2 - 4c*l from the
    tables (P, S) of `_tables(D)`.  Its set-up reduces -4l mod both primes
    once, packed, and each c adds it once more, so -4c*l mod each prime
    costs one packed sum:
    - at S's prime the symbol is bit j of a's mask, where S.units[j] is
      -4c*l mod that prime, a unit because l is coprime to it;
    - at P's prime it looks up (a^2 mod p) - 4c*l mod p in the squares;
    - at infinity, when 2 deg a < deg l, disc has the degree deg l and
      leading coefficient -4c*lc(l), so it is non-split for every such a
      or for none, read from those two alone; only when 2 deg a = deg l
      does `nonsquare_at_infinity` read disc.  When it fails, only the top
      level deg a = deg l / 2 is scanned;
    - a zero symbol, a^2 = 4c*l mod either prime, needs the valuation of
      disc at that prime, odd for a witness; the symbols in hand are kept,
      and a +1 at either prime rejects a before any of it.
    So disc is formed only where a valuation or the top level's infinity
    needs it.
    """
    q = D.q
    P, S = _tables(D)
    step_p, step_s = P.reduce(l.coeffs, -4), S.reduce(l.coeffs, -4)
    if not step_p or not step_s:
        raise InvalidInput("l must be coprime to the ramified primes")
    half = l.degree // 2
    count = q ** (half + 1)  # the candidates of degree <= half
    P.extend(count)
    S.extend_masks(count)
    # the first candidate with 2 deg a = deg l, if any
    top_start = q ** half if l.degree % 2 == 0 else count
    a2p, masks, squares_p, add = P.a2, S.masks, P.squares, P.add
    n_s = len(S.units)
    tp = ts = 0
    for c in range(1, q):
        tp, ts = add(tp, step_p), S.add(ts, step_s)  # -4c*l mod each prime
        bit = 1 << S.index[ts]
        zero_bit = bit << n_s
        # infinity for 2 deg a < deg l, from deg l and -4c*lc(l)
        inf_ok = l.degree % 2 or not ffield.is_square(-4 * c * l.leading_coeff, q)
        for i in range(0 if inf_ok else top_start, count):
            mask = masks[i]
            if not mask & (bit | zero_bit):
                continue  # S's symbol is +1
            d = add(a2p[i], tp)
            if d in squares_p:
                continue  # P's symbol is +1
            a = Poly._raw(q, P.candidates[i])
            zero_p, zero_s = not d, not mask & bit
            if zero_p or zero_s or i >= top_start:
                disc = a * a - 4 * c * l
                if ((i >= top_start and not nonsquare_at_infinity(disc))
                        or (zero_p and valuation(disc, P.r) % 2 == 0)
                        or (zero_s and valuation(disc, S.r) % 2 == 0)):
                    continue
            return LocalWitness(l=l, a=a, c=c)
    return None


@lru_cache(maxsize=None)
def fast_m_bound(D):
    """Least m <= deg(ram1)+deg(ram2)-2 such that every b coprime to both
    primes with deg(b) <= deg(ram1)+deg(ram2)-1 admits a with deg(a) <= m and
    both symbols (a^2-b / ram_i) = -1; None if no m works.

    When m exists, witnesses are only needed for places of degree <= 2m.

    By CRT those b are exactly the pairs (b1, b2) of nonzero residues mod
    ram1 and mod ram2, and the symbol at ram_i depends only on b_i; -b_i
    runs over the units as b_i does, so a pair is a pair of units (r, s)
    and a covers it iff a^2 + r and a^2 + s are nonzero non-squares.

    The candidates come from the tables (P, S) of `_tables(D)`.  For each
    unit r of P's prime, `pending` holds the units of S's not yet covered;
    a scan of the candidates tests r's symbol only for an a whose mask
    meets `pending`, then clears those bits.  The first a to clear a bit is
    the least a in enumeration order, so of least degree, covering that
    pair: m is the highest level a pair needed.  A level is built in both
    tables only when a scan has used up the levels built so far, and m is
    None once a scan uses up level deg(ram1)+deg(ram2)-2.
    """
    q = D.q
    P, S = _tables(D)
    top = D.ram1.degree + D.ram2.degree - 2
    limit = q ** (top + 1)  # the candidates of degree <= top
    a2p, masks, squares_p, add = P.a2, S.masks, P.squares, P.add
    worst, above = 0, q  # the first candidate above level worst
    built = 0  # the candidates of the levels this call has built
    for r in P.units:
        pending = (1 << len(S.units)) - 1
        i = 0
        while pending:
            if i == built:
                if built == limit:
                    return None
                built = built * q if built else q
                P.extend(built)
                S.extend_masks(built)
            bits = masks[i]
            if pending & bits:
                d = add(a2p[i], r)
                if d and d not in squares_p:
                    while i >= above:
                        worst, above = worst + 1, above * q
                    pending &= ~bits
            i += 1
    return worst


@dataclass(frozen=True)
class LocalReport:
    """Aggregate local verdict with all witnesses, fixed-order and seed-free
    so that two runs are byte-identical."""

    infinity_ok: bool
    ram1_ok: bool
    ram1_mu: int | None
    ram2_ok: bool
    ram2_mu: int | None
    lambda_cutoff: int
    witness_cutoff: int
    fast_m: int | None
    witnesses: tuple
    unwitnessed: tuple

    @property
    def ok(self):
        return (self.infinity_ok and self.ram1_ok and self.ram2_ok
                and not self.unwitnessed)

    def to_dict(self):
        """The JSON-ready `local` section shared by certificates and
        `dscurves local --json`."""
        return {
            "infinity_ok": self.infinity_ok,
            "ram1_ok": self.ram1_ok, "ram1_mu": self.ram1_mu,
            "ram2_ok": self.ram2_ok, "ram2_mu": self.ram2_mu,
            "lambda_cutoff": self.lambda_cutoff,
            "witness_cutoff": self.witness_cutoff,
            "fast_m": self.fast_m,
            "witnesses": [{"l": format_poly(w.l), "a": format_poly(w.a), "c": w.c}
                          for w in self.witnesses],
            "unwitnessed": [format_poly(l) for l in self.unwitnessed],
            "ok": self.ok,
        }


def local_all(D, K, recorded=None):
    """Run the whole battery for a K that splits D.

    Infinity passes unless it splits in K: a conservative rule, failing
    whatever the degrees of the ramified primes, in a case that no
    certificate's K reaches (see `hasse_certificate`).

    Places above the witness cutoff are discharged by the degree-bound lemma
    (beyond lambda_cutoff) or by the uniform bound m (between 2m+1 and the
    cutoff); everything below gets an explicit witness or lands in
    `unwitnessed`.

    Given `recorded`, a dict from a ramified prime to its recorded mu and
    from a place to its recorded witness (read from a certificate), nothing
    is searched: each keeps its recorded answer when the rule accepts it
    (`_answer`), so the report states what the recorded witnesses
    establish.
    """
    if not splits_quaternion(D, K.radicand):
        raise InvalidInput("K does not split the quaternion algebra")
    infinity_ok = nonsquare_at_infinity(K.radicand)
    ram1_ok, ram1_mu = _local_ramified_prime(D, K, D.ram1, recorded)
    ram2_ok, ram2_mu = _local_ramified_prime(D, K, D.ram2, recorded)
    m = fast_m_bound(D)
    wit_cutoff = witness_cutoff(D, m)
    search, check = partial(witness_search, D), partial(witness_ok, D)
    witnesses, unwitnessed = [], []
    for l in lambda_set(D, max_degree=wit_cutoff):
        w = _answer(recorded, l, search, check)
        if w is None:
            unwitnessed.append(l)
        else:
            witnesses.append(w)
    return LocalReport(infinity_ok=infinity_ok,
                       ram1_ok=ram1_ok, ram1_mu=ram1_mu,
                       ram2_ok=ram2_ok, ram2_mu=ram2_mu,
                       lambda_cutoff=lambda_cutoff(D), witness_cutoff=wit_cutoff,
                       fast_m=m, witnesses=tuple(witnesses),
                       unwitnessed=tuple(unwitnessed))
