"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

import json
import random
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tamper  # noqa: E402
import tracer  # noqa: E402


def test_coeff_ops_formulas():
    assert tracer.mul_ops(3, 4) == 12
    assert tracer.mul_ops(1, 7) == 7
    # (deg a - deg b + 1) * (deg b + 1)
    assert tracer.divmod_ops(5, 2) == 4 * 3
    assert tracer.divmod_ops(4, 0) == 5
    assert tracer.divmod_ops(2, 2) == 3
    assert tracer.divmod_ops(1, 2) == 0
    assert tracer.divmod_ops(-1, 2) == 0


def test_coeff_ops_match_schoolbook_division():
    from dscurves.fpoly import Poly
    q = 5
    a, b = Poly(q, [1, 2, 3, 4, 0, 1, 2]), Poly(q, [2, 0, 1, 3])
    # long division runs deg a - deg b + 1 steps of deg b + 1 multiply-adds
    steps = len(divmod(a, b)[0].coeffs)
    assert steps * len(b.coeffs) == tracer.divmod_ops(a.degree, b.degree)


def test_self_times_on_synthetic_span_tree():
    # A [0, 10] with 1 s of kernels, children B [1, 4] (0.5 s kernels)
    # and C [5, 9]; C has child D [6, 7].
    spans = [
        (0, "A", 0.0, 10.0, None, 1.0),
        (0, "B", 1.0, 4.0, 0, 0.5),
        (0, "C", 5.0, 9.0, 0, 0.0),
        (0, "D", 6.0, 7.0, 2, 0.0),
        (1, "B", 20.0, 22.0, None, 0.0),
    ]
    assert tracer.self_times(spans) == {"A": 2.0, "B": 2.5 + 2.0, "C": 3.0,
                                        "D": 1.0}


def test_tracer_records_spans_and_kernel_self_time():
    ticks = iter(range(100))
    rec = tracer.Tracer(clock=lambda: float(next(ticks)))
    kern = rec.kernel("k", lambda: None, ops=lambda: 3)
    outer_kernel = rec.kernel("outer", lambda: kern())

    def leaf():
        kern()

    leaf_stage = rec.stage("leaf", leaf)

    def root():
        outer_kernel()
        leaf_stage()

    rec.op = 7
    rec.stage("root", root)()
    # clock reads: root 0, outer 1, k 2-3, outer end 4, leaf 5, k 6-7, leaf end 8,
    # root end 9
    assert rec.spans == [(7, "root", 0.0, 9.0, None, 3.0),
                         (7, "leaf", 5.0, 8.0, 0, 1.0)]
    assert rec.kernels["k"] == [2, 2.0, 2.0, 6]
    assert rec.kernels["outer"] == [1, 3.0, 2.0, 0]
    assert tracer.self_times(rec.spans) == {"root": 3.0, "leaf": 2.0}


def _proc(code, stdout=b"", stderr="", timed_out=False):
    return {"code": code, "stdout": stdout, "stderr": stderr,
            "timed_out": timed_out}


def test_failure_accounting():
    ok = b"certificate verified: VALID\n"
    # a tampered certificate that verifies counts as a failed operation
    assert run.verify_failed(False, _proc(0, ok))
    assert not run.verify_failed(False, _proc(1, b"FAIL x\n"))
    assert not run.verify_failed(False, _proc(3))
    assert run.verify_failed(False, _proc(2))
    assert run.verify_failed(False, _proc(1, stderr="Traceback (most recent"))
    assert run.verify_failed(False, _proc(-9, timed_out=True))
    assert not run.verify_failed(True, _proc(0, ok))
    assert run.verify_failed(True, _proc(1))
    assert run.verify_failed(True, _proc(0, b"something else\n"))


@pytest.fixture(scope="module")
def reference():
    return run.load_reference()


@pytest.mark.parametrize("kind", tamper.BOUND_KINDS)
def test_bound_edits_are_rejected(reference, kind):
    from dscurves.certificate import SchemaError, verify_certificate
    cert = json.loads(reference[0][0])
    for seed in range(3):
        data, desc = tamper.tamper(cert, kind, random.Random(seed))
        assert data != cert
        try:
            code, _ = verify_certificate(data)
        except SchemaError:
            code = 3
        assert code in tamper.REJECT_CODES, desc


def test_tampered_sample_is_seeded_and_stratified(reference):
    certs = [json.loads(b) for b in reference[0]]
    a = tamper.tampered_sample(certs, random.Random(5), tamper.KINDS)
    b = tamper.tampered_sample(certs, random.Random(5), tamper.KINDS)
    assert [x[:3] for x in a] == [x[:3] for x in b]
    assert [x[0] for x in a] == list(range(len(certs)))


def test_search_candidates_counted_from_window():
    assert [run.irreducible_count(3, n) for n in range(1, 6)] == [3, 3, 8, 18, 48]
    assert run.search_candidates(3, 5, 2) == 174


def test_every_traced_function_must_be_called_somewhere():
    traced = {"%s.%s" % s for s in tracer.STAGES}
    traced |= {"fpoly." + f for f in tracer.KERNEL_FUNCTIONS}
    traced |= {"fpoly." + name for _, name in tracer.KERNEL_METHODS}
    assert set(run.MUST_CALL) == traced
    assert all(run.MUST_CALL.values())


def test_benchmark_json_lists_the_harness_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)


def test_launcher_reports_own_peak_and_kills_on_timeout(tmp_path):
    import resource
    runner = run.Runner(tmp_path)
    proc = runner.process(["-c", "print('hi')"])
    assert proc["code"] == 0 and proc["stdout"] == b"hi\n"
    # not floored at this (larger) process's resident size
    own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    assert proc["rss_mb"] < own_mb
    runner.deadline = 0  # every command now gets the minimum timeout
    proc = runner.process(["-c", "import time; time.sleep(30)"])
    assert proc["timed_out"] and proc["code"] != 0 and proc["latency"] < 10
