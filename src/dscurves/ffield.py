"""Arithmetic in the prime field F_q for an odd prime q.

Scalars are plain ints kept as canonical residues in [0, q); every function
takes the field order explicitly.  Only odd prime q is supported: the residue
symbol and discriminant machinery downstream assumes odd characteristic.
"""

from .errors import InvalidInput, excerpt

_VALIDATED = set()

# largest q accepted: _is_prime's trial division takes 2^19 steps here
_MAX_FIELD_ORDER = 2 ** 40


def _is_prime(n):
    """Trial division, for the n >= 3 that `validate_field_order` admits."""
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def validate_field_order(q):
    """Raise InvalidInput unless q is an odd prime, 3 <= q <= 2^40."""
    if q in _VALIDATED:
        return
    if not (isinstance(q, int) and 3 <= q <= _MAX_FIELD_ORDER and _is_prime(q)):
        raise InvalidInput("field order must be an odd prime from 3 to %d, got %s"
                           % (_MAX_FIELD_ORDER, excerpt(q)))
    _VALIDATED.add(q)


def inv(a, q):
    if a % q == 0:
        raise InvalidInput("inverse of 0 in F_%d" % q)
    return pow(a, q - 2, q)


def is_square(a, q):
    """True iff a is a nonzero square in F_q, by Euler's criterion."""
    validate_field_order(q)
    a %= q
    if a == 0:
        raise InvalidInput("is_square is undefined at 0")
    return pow(a, (q - 1) // 2, q) == 1


def square_class_reps(q):
    """Representatives [1, nu] of F_q^x modulo squares, nu the least
    non-square: half the units are non-squares, so one lies below q."""
    validate_field_order(q)
    return [1, next(a for a in range(2, q) if not is_square(a, q))]
