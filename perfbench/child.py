"""One fresh benchmark process.  Started by run.py, never imported.

    child.py probe   WORKLOAD RESULT [CERT]       set up, then exit
    child.py table   INPUTS OUTDIR RESULT [TRACE]  certify the triples in INPUTS
    child.py search  INPUTS RESULT [TRACE]         cli.main(search args) to stdout
    child.py verify  CERT TRACE OP                 traced cli.main(["verify", CERT])

RESULT receives perf_counter stamps: `ready` when set-up is over and the
first timed operation starts, `done` when the last one ends.  With TRACE
the layer timers are installed first and their record is written to TRACE
at exit.
"""

import json
import sys
import time


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)


def _start_trace(op=0):
    import tracer
    rec = tracer.Tracer()
    rec.op = op
    return rec, tracer.install(rec)


def _finish_trace(path, rec, read_caches):
    read_caches()
    _write_json(path, rec.dump())


def probe(workload, result, cert=None):
    if workload == "table":
        import dscurves  # noqa: F401
    else:
        import dscurves.cli  # noqa: F401
    if cert is not None:
        with open(cert) as fh:
            json.load(fh)
    _write_json(result, {"ready": time.perf_counter()})


def table(inputs, outdir, result, trace=None):
    if trace:
        rec, read_caches = _start_trace()
    from dscurves import (QuaternionData, admissible_eps_set,
                          hasse_certificate, parse_poly)
    from dscurves.fpoly import Poly
    with open(inputs) as fh:
        triples = json.load(fh)
    ready = time.perf_counter()
    verdicts = []
    for i, (q, ram1, ram2) in enumerate(triples):
        if trace:
            rec.op = i
        D = QuaternionData(ram1=parse_poly(ram1, q), ram2=parse_poly(ram2, q))
        one = Poly.one(q)
        cert = hasse_certificate(D, parse_poly("t", q), one,
                                 admissible_eps_set(one)[0])
        verdicts.append(cert.verdict)
        with open("%s/cert%d.json" % (outdir, i), "wb") as fh:
            fh.write(cert.to_json().encode())
    done = time.perf_counter()
    if trace:
        _finish_trace(trace, rec, read_caches)
    _write_json(result, {"ready": ready, "done": done, "verdicts": verdicts})


def search(inputs, result, trace=None):
    if trace:
        rec, read_caches = _start_trace()
    import dscurves.cli
    with open(inputs) as fh:
        argv = json.load(fh)
    ready = time.perf_counter()
    code = dscurves.cli.main(argv)
    done = time.perf_counter()
    sys.stdout.flush()
    if trace:
        _finish_trace(trace, rec, read_caches)
    _write_json(result, {"ready": ready, "done": done, "code": code})


def verify(cert, trace, op):
    rec, read_caches = _start_trace(int(op))
    import dscurves.cli
    code = dscurves.cli.main(["verify", cert])
    sys.stdout.flush()
    _finish_trace(trace, rec, read_caches)
    return code


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    sys.exit({"probe": probe, "table": table, "search": search,
              "verify": verify}[mode](*args))
