"""Exact arithmetic over F_q[t] for Weil quadratics, quaternionic splitting,
local-points checks, and Hasse-violation certificates.

The top level re-exports the entry points used by the examples; everything
else lives in its submodule (`fpoly`, `weil`, `splitting`, `localpoints`,
`certificate`, `search`).
"""

from .errors import FieldMismatch, InvalidInput, ParseError
from .fpoly import format_poly, parse_poly
from .weil import dset, enumerate_weil, exponent_n, p_excluded, pset
from .splitting import QuaternionData
from .certificate import (SchemaError, admissible_eps_set, hasse_certificate,
                          verify_certificate)
from . import search

__all__ = [
    "FieldMismatch", "InvalidInput", "ParseError",
    "SchemaError",
    "format_poly", "parse_poly",
    "dset", "enumerate_weil", "exponent_n", "p_excluded", "pset",
    "QuaternionData",
    "admissible_eps_set", "hasse_certificate", "verify_certificate",
    "search",
]
