"""Write the reference outputs the benchmark compares against.

    python3 perfbench/make_reference.py

Certifies the six table triples and runs the `search_q3` window with the
program in `src/`, then stores the six certificates and the SHA-256 of the
search JSON under `perfbench/reference/`.  The committed files were made
from the seed code; rerun only when a change to the output bytes is
intended.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import run

sys.path.insert(0, str(run.ROOT / "src"))

from dscurves import (QuaternionData, admissible_eps_set,  # noqa: E402
                      hasse_certificate, parse_poly)
from dscurves.cli import main as cli_main  # noqa: E402
from dscurves.fpoly import Poly  # noqa: E402


def main():
    run.REFERENCE.mkdir(exist_ok=True)
    for i, (q, ram1, ram2) in enumerate(run.TRIPLES):
        D = QuaternionData(ram1=parse_poly(ram1, q), ram2=parse_poly(ram2, q))
        one = Poly.one(q)
        cert = hasse_certificate(D, parse_poly("t", q), one,
                                 admissible_eps_set(one)[0])
        Path(run.REFERENCE, "cert%d.json" % i).write_bytes(cert.to_json().encode())
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(run.SEARCH_ARGV)
    text = out.getvalue().encode()
    if code != 0:
        raise SystemExit("search exited %d" % code)
    summary = {"argv": run.SEARCH_ARGV, "bytes": len(text),
               "sha256": hashlib.sha256(text).hexdigest(),
               "triples": len(json.loads(text)["triples"])}
    Path(run.REFERENCE, "search_q3.json").write_text(
        json.dumps(summary, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
