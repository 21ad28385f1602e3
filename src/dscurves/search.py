"""Search degree windows for (ram1, ram2) pairs violating the Hasse principle.

Candidates are enumerated in a fixed order (degree, then lexicographic),
pre-filtered by the n-independent hypotheses that are cheap to evaluate,
and each survivor is certified with n = 1 and the first admissible eps.
That loses no triple: every admissible (n_poly, eps) gives the verdict of
n = 1, since a certificate's verdict depends on (q, D, y) only.
"""

from .certificate import admissible_eps_set, hasse_certificate
from .errors import InvalidInput
from .fpoly import (Poly, format_poly, monic_irreducibles,
                    require_monic_irreducible)
from .localpoints import ramified_mu
from .splitting import QuaternionData, check_pair_count, mu_y_obstruction
from .weil import check_norm_degree, p_excluded

# most worker processes `search` starts: a pool forks all its workers at
# its first job, so the cap is a constant, not read from the machine
MAX_WORKERS = 16


def candidates(y, max_deg1, max_deg2):
    """Pairs (p, s) of monic irreducibles with deg p <= max_deg1 and
    deg s <= max_deg2, distinct from each other and from y, whose product
    with y has odd degree (the eps table needs odd total degree).

    The window is refused from its degrees alone, before any sieve, when
    some (deg p, deg s) of that parity exceeds the pair bound."""
    q = y.q
    for d1 in range(1, max_deg1 + 1):
        for d2 in range(1, max_deg2 + 1):
            if (y.degree + d1 + d2) % 2 == 1:
                check_pair_count(q, d1, d2)
    out = []
    for d1 in range(1, max_deg1 + 1):
        for p in monic_irreducibles(q, d1):
            if p == y:
                continue
            for d2 in range(1, max_deg2 + 1):
                if (y.degree + d1 + d2) % 2 == 0:
                    continue
                for s in monic_irreducibles(q, d2):
                    if s != p and s != y:
                        out.append((p, s))
    return out


def passes_cheap_filters(D, y):
    """Hypotheses that hold for every n: the mu-obstruction, a mu-witness at
    both ramified primes, and some ramified prime outside P(y).  Symbols
    come first; the excluded-prime test then runs one Lucas ladder mod the
    tested prime per orbit of dset(y).

    No pair passes with an even deg y.  deg(y * ram1 * ram2) is odd, so
    say deg r1 is odd and deg r2 even, {r1, r2} = {ram1, ram2}, and write
    (a/r) for `residue_symbol`.  A constant is a square mod r2, so a
    mu-witness at r1 needs (r1/r2) = -1.  At r2, mu*r2 has even degree, so
    infinity is inert only for a non-square mu, and (mu/r1) = -1 as deg r1
    is odd: a mu-witness at r2 needs (r2/r1) = +1.  Reciprocity gives
    (r1/r2) = (r2/r1) for monic primes when deg r1 * deg r2 is even, so
    exactly one of the two mu-witnesses exists.  A VALID certificate,
    which needs both, therefore has odd deg y."""
    return (mu_y_obstruction(D, y)
            and ramified_mu(D, D.ram1) is not None
            and ramified_mu(D, D.ram2) is not None
            and (p_excluded(D.ram1, y) or p_excluded(D.ram2, y)))


def _certify_pair(job):
    """Worker: the n = 1 certificate for one (D, y) that passed the cheap
    filters.  Its primes are Primes, in a pickle too, so none is tested."""
    D, y = job
    one = Poly.one(D.q)
    cert = hasse_certificate(D, y, one, admissible_eps_set(one)[0])
    return format_poly(D.ram1), format_poly(D.ram2), cert.data


def search(y, max_deg1, max_deg2, workers=1):
    """Certify every candidate pair that passes the cheap filters.

    Returns (number of candidates, results), where results yields
    (ram1 text, ram2 text, certificate dict) in candidate order, VALID and
    INVALID alike, each certified as it is read, so a caller holds only
    the certificates it keeps.  `workers` > 1 certifies in that many
    processes, never more than there are pairs to certify; the results are
    the same.  More than MAX_WORKERS is refused before any other work.

    The checks, the candidates and the cheap filters run at call time.  The
    cheap filters may reject every pair without computing dset(y), so y is
    checked here: its norm bound, then the one irreducibility test of y.
    """
    if workers > MAX_WORKERS:
        raise InvalidInput("at most %d workers, got %d" % (MAX_WORKERS, workers))
    check_norm_degree(y)
    y = require_monic_irreducible(y, "y")
    pairs = candidates(y, max_deg1, max_deg2)
    jobs = [(D, y) for D in (QuaternionData(ram1=p, ram2=s) for p, s in pairs)
            if passes_cheap_filters(D, y)]
    return len(pairs), _certify_all(jobs, workers)


def _certify_all(jobs, workers):
    """Yield `_certify_pair` of each job in order, from a pool of
    min(workers, jobs) processes when that is more than one."""
    if workers > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=min(workers, len(jobs))) as pool:
            yield from pool.map(_certify_pair, jobs)
    else:
        for job in jobs:
            yield _certify_pair(job)
