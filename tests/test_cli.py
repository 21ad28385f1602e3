import hashlib
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from dscurves import cli, fpoly, search, weil
from dscurves.certificate import hasse_certificate
from dscurves.errors import InvalidInput
from dscurves.fpoly import Poly, format_poly, parse_poly
from dscurves.splitting import (QuadraticField, QuaternionData,
                                nonexistence_criterion)

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference"


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_wset_json(capsys):
    code, out, _ = run(["wset", "--field-order", "3", "--y", "t", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert len(data["weil"]) == 6
    # every discriminant has degree 1 at y = t; at y = t^2+1 some have an
    # even degree and a non-square leading coefficient
    code, out, _ = run(["wset", "--field-order", "3", "--y", "t^2+1", "--json"], capsys)
    assert code == 0
    assert {row["classification"] for row in json.loads(out)["weil"]} == {
        "odd discriminant degree", "non-square leading coefficient"}


def test_pcheck_exit_codes(capsys):
    code, _, _ = run(["pcheck", "--field-order", "3", "--y", "t",
                      "--p", "t^3+t^2+t+2"], capsys)
    assert code == 0
    code, _, _ = run(["pcheck", "--field-order", "3", "--y", "t",
                      "--p", "t+1"], capsys)
    assert code == 1
    # every monic irreducible p != y of degree <= 3: exit 0 iff p_excluded
    for q in (3, 5):
        y = parse_poly("t", q)
        codes = set()
        for d in (1, 2, 3):
            for p in fpoly.monic_irreducibles(q, d):
                if p == y:
                    continue
                code, _, _ = run(["pcheck", "--field-order", str(q), "--y", "t",
                                  "--p", format_poly(p)], capsys)
                assert code == (0 if weil.p_excluded(p, y) else 1), (q, p)
                codes.add(code)
        assert codes == {0, 1}, q


def test_pset_json(capsys):
    code, out, _ = run(["pset", "--field-order", "3", "--y", "t", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    assert "t^3+t^2+t+2" not in data["pset"]
    assert "t+1" in data["pset"]


def test_criterion_and_local(capsys):
    rad = "t^5+t^4+t^3+t^2+2t"  # y * ram1 * ram2 for the arguments below
    from dscurves.fpoly import format_poly, parse_poly
    y = parse_poly("t", 3)
    r1 = parse_poly("t^3+t^2+t+2", 3)
    r2 = parse_poly("t+1", 3)
    rad = format_poly(y * r1 * r2)
    base = ["--field-order", "3", "--ram1", "t^3+t^2+t+2", "--ram2", "t+1",
            "--radicand", rad, "--eps", "1"]
    code, _, _ = run(["criterion", "--y", "t"] + base, capsys)
    assert code == 0
    code, out, _ = run(["local", "--json"] + base, capsys)
    assert code == 0
    data = json.loads(out)
    assert data["ok"] and not data["unwitnessed"]


# The (3, t^3+t^2+t+2, t+1) triple with y = t, whose K has the radicand
# y * ram1 * ram2; t^2+t+2 is a K that fails the criterion and the
# battery, and t+2 one in which t+1 splits, so `local` refuses it
R1, R2 = "t^3+t^2+t+2", "t+1"
Y_ARGS = ["--field-order", "3", "--y", "t"]
CRITERION_ARGS = Y_ARGS + ["--ram1", R1, "--ram2", R2]
LOCAL_ARGS = ["--field-order", "3", "--ram1", R1, "--ram2", R2]

# (subcommand, arguments, exit code, sha256 of stdout as text, with --json);
# an exit 2 prints nothing to stdout
SUBCOMMAND_PINS = [
    ("wset", Y_ARGS, 0,
     "5c31056352f6175c602a6552888f00b1c17ccf0c0d27e1a3e35e834f1f0be610",
     "70f463806b19ca6e226ba333cda554a30811f1bfda1784176d53d14da6dbc80b"),
    ("pcheck", Y_ARGS + ["--p", R1], 0,
     "7df9097b358540df2039f7ca01c83479fa94f3c6457aee0d0ea77c7530d330e6",
     "cf4aaca85347e3fd5834bdaeee0caf4748f2e833833c96f279c1e39eb1be47cc"),
    ("pset", Y_ARGS, 0,
     "30282c414f018e3a25ebe3b5732e39c27d61edd781523ccad3a65e3e7e6e02c4",
     "17b27cfeab7aa353f94d516ca446a50b05d975854990ae4c6d15c980520e5482"),
    ("criterion", CRITERION_ARGS + ["--radicand", "t^5+2t^4+2t^3+2t"], 0,
     "a2c529195e07494447541bed94e139776dec4e17f99b074b2de2e7b9ba2e2b55",
     "b35599332973b7999f3e9f558206bfd4b41e247b33b670d33db1dd0c3ae9f354"),
    ("local", LOCAL_ARGS + ["--radicand", "t^5+2t^4+2t^3+2t"], 0,
     "4426de5ec1bca6ab13c07eff255505a44c3f82cb97eb60c38517eb9deaf87c8c",
     "d41227b89471332befbb29bce387e5a260612ff4d21476e199e514c6bc044c2c"),
    ("criterion", CRITERION_ARGS + ["--radicand", "t^2+t+2"], 1,
     "74e1719d0ba1e14d49a1660d1451bd9402cf713ace4dfa4cd539044fe85ce0dc",
     "bcdf41ee94f18465a3952a750ce0ec505c31b55b05bb09d042594128b2ff14fa"),
    ("local", LOCAL_ARGS + ["--radicand", "t^2+t+2"], 1,
     "144d5cd40aa6041730b01257ffc0b5b80e2f6766f913321c8ac2df6b31a852db",
     "cb5ca3c680c22d7f48136d4455b44c14a17562fd85f19d6b92703b324ee7f4de"),
    ("criterion", CRITERION_ARGS + ["--radicand", "t+2"], 1,
     "3496bfc1c96e1d3ea008af329773dc77fe84af54368b8628872858f9b9a55df4",
     "1eb5d7cc9d425d088c97a21dc036ce6b258f9ca9bae80a0bd7fd08725323ab4e"),
    ("local", LOCAL_ARGS + ["--radicand", "t+2"], 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # the excluded-prime test where the norms are long: degree up to 2304
    # at q = 5 and 4608 at q = 7, for ram1 of the (5, t^4+2, t^2+t+1) and
    # (7, t^3+2, t+3) table triples
    ("pcheck", ["--field-order", "5", "--y", "t", "--p", "t^4+2"], 0,
     "2dbac17abad1c7a1a5bc1eff4549568f32ddc3086366e15d5d8a8b84c569b05b",
     "f94a3201b7c138c9d14439eb55767ebf1ff5cf59a52506669038caaa51042efc"),
    ("pcheck", ["--field-order", "7", "--y", "t", "--p", "t^3+2"], 0,
     "725fb9c796f004c1f1bcb2d0e646049ac5c7abec05a4d77340b03b4e5027f153",
     "b62368657f802a15359267289ed308c93714bb696591df524d9f3e7a78cd23d2"),
    # a battery that fails at one place only: l = t has no witness, and
    # the text form prints it as "l=t NO WITNESS"
    ("local", ["--field-order", "3", "--ram1", "t^3+2t^2+1", "--ram2", "t+2",
               "--radicand", "t^5+t^4+t^3+t^2+2t"], 1,
     "65eb9d8a2aa17d8761a5f23f807392efb2da3eb812c674f0992fefc04a017e92",
     "5296298e6c416809fa597e3286e16933f2e0fab22e039827120d560900742416"),
    # neither ramified prime is excluded, so "excluded_prime" is null
    ("criterion", ["--field-order", "3", "--ram1", "t+1", "--ram2", "t+2",
                   "--y", "t", "--radicand", "t^3+2t"], 1,
     "3435e71a19daf7675b089a82bd1091f8b3cb45f19a8d01499fb17968de1236f2",
     "9506aac42ee5699c455342a444e5ade562b200763d8b582692768f2853db103a"),
]


@pytest.mark.parametrize("command, args, code, text_sha, json_sha", SUBCOMMAND_PINS)
def test_subcommand_output_is_pinned(capsys, command, args, code, text_sha, json_sha):
    for extra, want in (([], text_sha), (["--json"], json_sha)):
        got, out, _ = run([command] + args + extra, capsys)
        assert (got, hashlib.sha256(out.encode()).hexdigest()) == (code, want), extra


def test_certify_writes_the_reference_bytes(capsys, tmp_path):
    argv = ["certify"] + CRITERION_ARGS
    path = tmp_path / "cert.json"
    assert run(argv + ["--out", str(path)], capsys)[0] == 0
    reference = (REFERENCE / "cert0.json").read_bytes()
    assert path.read_bytes() == reference
    # certify writes canonical JSON with or without --json
    for extra in ([], ["--json"]):
        code, out, _ = run(argv + extra, capsys)
        assert code == 0 and out.encode() == reference, extra


def test_certify_out_to_a_path_it_cannot_write(capsys, tmp_path):
    # a missing directory and a directory: exit 2 with one line on stderr,
    # as verify reports a file it cannot read, and nothing on stdout
    for out in (tmp_path / "missing" / "cert.json", tmp_path):
        code, stdout, err = run(["certify"] + CRITERION_ARGS + ["--out", str(out)],
                                capsys)
        assert (code, stdout) == (2, "")
        assert err.startswith("cannot write certificate: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_pcheck_text_builds_no_norm(capsys, monkeypatch):
    # the text form prints statuses only; the JSON form reads each norm's
    # degree, so the patched value shows that only it builds norms
    def no_norm(entry):
        raise AssertionError("a norm was built")

    monkeypatch.setattr(weil.NormEntry, "value", property(no_norm))
    argv = ["pcheck", "--field-order", "7", "--y", "t", "--p", "t^3+2"]
    code, out, _ = run(argv, capsys)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (
        0, "725fb9c796f004c1f1bcb2d0e646049ac5c7abec05a4d77340b03b4e5027f153")
    with pytest.raises(AssertionError, match="a norm was built"):
        cli.main(argv + ["--json"])


def test_certify_verify_cycle(tmp_path, capsys):
    path = tmp_path / "cert.json"
    code, _, _ = run(["certify", "--field-order", "3",
                      "--ram1", "t^3+t^2+t+2", "--ram2", "t+1",
                      "--y", "t", "--out", str(path)], capsys)
    assert code == 0
    code, out, _ = run(["verify", str(path)], capsys)
    assert code == 0 and "VALID" in out
    # a long reducible ram1 is a schema error with a short message
    data = json.loads(path.read_text())
    rng = random.Random(1)
    g = Poly(3, [rng.randrange(3) for _ in range(300)] + [1])
    path.write_text(json.dumps(dict(data, ram1=format_poly(parse_poly("t+2", 3) * g))))
    code, _, err = run(["verify", str(path)], capsys)
    assert code == 3 and len(err) < 200
    # tamper: flip a criterion flag
    data["criterion"]["ram1_excluded"] = False
    path.write_text(json.dumps(data))
    code, out, _ = run(["verify", str(path)], capsys)
    assert code == 1
    # a witness exponent too long for int() is a schema error
    witness = data["local"]["witnesses"][0]
    witness["a"] = "t^" + "9" * 5000
    path.write_text(json.dumps(data))
    code, _, err = run(["verify", str(path)], capsys)
    assert code == 3 and "out of range" in err
    # break the schema
    del data["criterion"]
    path.write_text(json.dumps(data))
    code, _, err = run(["verify", str(path)], capsys)
    assert code == 3
    # a JSON array is no certificate, and d = 3 is not supported
    path.write_text("[]")
    code, _, err = run(["verify", str(path)], capsys)
    assert code == 3 and "must be a JSON object" in err
    path.write_text(json.dumps(dict(data, d=3)))
    code, _, err = run(["verify", str(path)], capsys)
    assert code == 3 and "only d = 2" in err
    # a null local section records no mu and no witness: the rebuild
    # differs in that field, and verify says so
    reference = json.loads((REFERENCE / "cert0.json").read_text())
    path.write_text(json.dumps(dict(reference, local=None)))
    code, out, _ = run(["verify", str(path)], capsys)
    assert code == 1 and "FAIL local: recorded null, expected {" in out


def test_verify_refuses_a_long_n_poly_from_its_degree(capsys, tmp_path):
    # n_poly's degree bound comes before its square-free test, which is
    # quadratic in the degree: 2.5 s at degree 4000 without the bound
    data = json.loads((REFERENCE / "cert0.json").read_text())
    rng = random.Random(4000)
    n_poly = Poly(3, [rng.randrange(3) for _ in range(4000)] + [1])
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(dict(data, n_poly=format_poly(n_poly))))
    t0 = time.perf_counter()
    code, _, err = run(["verify", str(path)], capsys)
    assert code == 3 and "n_poly has degree 4000, above 1000" in err
    assert time.perf_counter() - t0 < 1.0


def test_verify_refuses_witnesses_above_the_cutoff(capsys, tmp_path):
    # a recorded witness above lambda_cutoff(D) = 6 is refused as it is
    # parsed: 1000 of degree 99999 took 23 s and 1.5 GB when each was
    # built and checked
    data = json.loads((REFERENCE / "cert0.json").read_text())
    data["local"]["witnesses"] += [{"l": "t^99999", "a": "t^99999", "c": 1}] * 1000
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(data))
    t0 = time.perf_counter()
    code, _, err = run(["verify", str(path)], capsys)
    assert code == 3 and "above the cutoff 6" in err and len(err) < 200
    assert time.perf_counter() - t0 < 1.0


def test_verify_unreadable_file(capsys, tmp_path):
    code, _, _ = run(["verify", "/nonexistent/cert.json"], capsys)
    assert code == 3
    # bytes that are not UTF-8, and nesting deeper than the decoder's limit
    for name, content in (("binary.json", b"\xff\xfe\x00"),
                          ("deep.json", b"[" * 100000 + b"]" * 100000)):
        path = tmp_path / name
        path.write_bytes(content)
        code, _, _ = run(["verify", str(path)], capsys)
        assert code == 3


def test_invalid_inputs_exit_2(capsys):
    code, _, err = run(["wset", "--field-order", "4", "--y", "t"], capsys)
    assert code == 2
    code, _, err = run(["wset", "--field-order", "3", "--y", "t^2+2t+1"], capsys)
    assert code == 2
    code, _, err = run(["pcheck", "--field-order", "3", "--y", "t", "--p", "t"], capsys)
    assert code == 2
    code, _, err = run(["wset", "--field-order", "3", "--y", "5t+("], capsys)
    assert code == 2
    # every polynomial option is parsed before any is checked: a bad y is
    # reported before the reducible ram1
    code, _, err = run(["certify", "--field-order", "3", "--ram1", "t^2+2",
                        "--ram2", "t+1", "--y", "5t+("], capsys)
    assert code == 2 and err.startswith("invalid input: bad y '5t+(': ")
    # an empty text, an unterminated list and a bad list coefficient
    for y, reason in (("", "empty polynomial text"),
                      ("[1,2", "unterminated coefficient list"),
                      ("[1,x]", "bad coefficient")):
        code, _, err = run(["wset", "--field-order", "3", "--y", y], capsys)
        assert code == 2 and reason in err
    code, _, err = run(["criterion", "--field-order", "3", "--ram1", "t+1",
                        "--ram2", "t+2", "--y", "t+1", "--radicand", "t^3+2t"],
                       capsys)
    assert code == 2 and "y must differ from the ramified primes" in err
    for ram1 in ("t^" + "9" * 5000, "t^1000000000"):
        code, _, err = run(["certify", "--field-order", "3", "--ram1", ram1,
                            "--ram2", "t+1", "--y", "t"], capsys)
        assert code == 2 and "out of range" in err
        assert len(err) < 200  # the argument is quoted as a short excerpt
    # the norms at q = 101 have degree 2.08e8, and a degree-16 y at q = 3
    # has 39366 norms: both refused before any product
    for q, y in (("101", "t"),
                 ("3", "t^16+2t^15+2t^14+2t^13+t^12+2t^10+2t^9+t^5+2t^4+2t^3+2t^2+1")):
        code, _, err = run(["pcheck", "--field-order", q, "--y", y,
                            "--p", "t+1"], capsys)
        assert code == 2 and "norm degree" in err
    # a prime of degree 3000 is refused from its degree alone, before any
    # irreducibility test, and so is a wset with too many rows
    for argv, reason in (
            (["pcheck", "--field-order", "3", "--y", "t", "--p", "t^3000+t+2"],
             "above 200"),
            (["certify", "--field-order", "3", "--ram1", "t^3000+t+2",
              "--ram2", "t+1", "--y", "t"], "deg ram1 + deg ram2"),
            (["wset", "--field-order", "3", "--y", "t^3000+t+2"], "pairs (a1, mu)"),
            # about 10^6 pairs (a1, mu) to list, and 2 * 3^101 for an
            # irreducible y of degree 200: the count is read from degrees
            (["wset", "--field-order", "1009", "--y", "t"], "pairs (a1, mu)"),
            (["wset", "--field-order", "3", "--y", "t^200+t^3+2"], "pairs (a1, mu)"),
            # (5, 1) at q = 7 has 7^6 residue pairs: the whole window is
            # refused from its degrees, before any sieve
            (["search", "--field-order", "7", "--max-deg1", "5", "--max-deg2", "1"],
             "deg ram1 + deg ram2")):
        start = time.perf_counter()
        code, _, err = run(argv, capsys)
        assert code == 2 and reason in err
        assert time.perf_counter() - start < 5
    # argparse's own errors quote a long value as a short excerpt too
    long = "x" * 5000
    for argv, option in ((["wset", "--field-order", long, "--y", "t"], "--field-order"),
                         (["wset", "--field-order", "3", "--y", "t", "--" + long], "--xxx")):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        err = capsys.readouterr().err
        assert exc.value.code == 2 and option in err and len(err) < 200


# every subcommand that takes --field-order, with arguments that are valid
# at q = 3
FIELD_ORDER_COMMANDS = [
    ["wset", "--y", "t"],
    ["pcheck", "--y", "t", "--p", "t^3+t^2+t+2"],
    ["pset", "--y", "t"],
    ["criterion", "--ram1", "t^3+t^2+t+2", "--ram2", "t+1", "--y", "t",
     "--radicand", "t^5+2t^4+2t^3+2t"],
    ["local", "--ram1", "t^3+t^2+t+2", "--ram2", "t+1",
     "--radicand", "t^5+2t^4+2t^3+2t"],
    ["certify", "--ram1", "t^3+t^2+t+2", "--ram2", "t+1", "--y", "t"],
    ["search", "--max-deg1", "3", "--max-deg2", "1"],
]


@pytest.mark.parametrize("q", ["4", "9"])
@pytest.mark.parametrize("argv", FIELD_ORDER_COMMANDS, ids=lambda argv: argv[0])
def test_field_order_is_refused_by_the_library(capsys, argv, q):
    # the first polynomial parsed validates q; the CLI checks nothing itself
    code, out, err = run(argv[:1] + ["--field-order", q] + argv[1:], capsys)
    assert code == 2 and out == "" and "field order must be" in err


def test_each_input_gets_one_irreducibility_test(capsys, monkeypatch, tmp_path):
    # certify and verify test ram1 and ram2 in QuaternionData, which keeps
    # their Primes, and y in dset; pcheck tests y and p, wset y, and search
    # y only, since its ramified primes come from the sieve.  The caches
    # holding dset(y) are cleared first, as in a cold process
    calls = []
    distinct_degree = fpoly._distinct_degree

    def counted(f):
        calls.append(f)
        return distinct_degree(f)

    monkeypatch.setattr(fpoly, "_distinct_degree", counted)
    cert = str(tmp_path / "cert.json")
    for argv, want in (
            (["certify", "--field-order", "3", "--ram1", "t^3+t^2+t+2",
              "--ram2", "t+1", "--y", "t", "--out", cert], 3),
            (["verify", cert], 3),
            (["pcheck", "--field-order", "3", "--y", "t", "--p", "t^3+t^2+t+2"], 2),
            (["wset", "--field-order", "3", "--y", "t"], 1),
            (["search", "--field-order", "3", "--max-deg1", "3", "--max-deg2", "1"], 1)):
        weil.dset.cache_clear()
        calls.clear()
        code, _, _ = run(argv, capsys)
        assert code == 0 and len(calls) == want, (argv[0], len(calls))


def test_norm_statuses_refuses_y_before_testing_p(monkeypatch):
    # dset(y) refuses y = t^2+1 at q = 7 by its norm bound, before p gets
    # the Ben-Or test that a dense p of degree 200 takes seconds to run
    calls = []
    distinct_degree = fpoly._distinct_degree

    def counted(f):
        calls.append(f)
        return distinct_degree(f)

    monkeypatch.setattr(fpoly, "_distinct_degree", counted)
    q = 7
    with pytest.raises(InvalidInput):
        list(weil.norm_statuses(parse_poly("t^3+2", q), parse_poly("t^2+1", q)))
    assert calls == []


def test_library_refuses_degree_3000_from_degrees():
    # every entry point reads its degree bound before any irreducibility
    # test, which would take minutes at degree 3000, or square-free test
    q = 3
    big = parse_poly("t^3000+t+2", q)
    y, r1, r2 = (parse_poly(text, q) for text in ("t", "t^3+t^2+t+2", "t+1"))
    D = QuaternionData(ram1=r1, ram2=r2)
    K = QuadraticField(eps=1, radical=y * r1 * r2)
    # a dense monic radical: its square-free test would take over 10 s
    rng = random.Random(16000)
    dense = Poly(q, [rng.randrange(q) for _ in range(16000)] + [1])
    for call in (lambda: QuaternionData(ram1=big, ram2=r2),
                 lambda: QuadraticField(eps=1, radical=dense),
                 lambda: hasse_certificate(D, big, Poly.one(q), 1),
                 lambda: nonexistence_criterion(D, big, K),
                 lambda: list(weil.norm_statuses(big, y)),
                 lambda: list(weil.norm_statuses(r1, big)),
                 lambda: weil.dset(big),
                 lambda: weil.enumerate_weil(big),
                 lambda: search.search(big, 3, 1),
                 lambda: search.search(y, 3000, 1)):
        start = time.perf_counter()
        with pytest.raises(InvalidInput):
            call()
        assert time.perf_counter() - start < 1


def test_cli_import_loads_no_numpy():
    # the package has no runtime dependency; a cold CLI import pays for none
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, dscurves.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, check=True).stdout
    assert out.strip() == "False"


def test_search_small_contains_known_triple(capsys):
    code, out, _ = run(["search", "--field-order", "3",
                        "--max-deg1", "3", "--max-deg2", "1", "--json"], capsys)
    assert code == 0
    data = json.loads(out)
    pairs = {(t["ram1"], t["ram2"]) for t in data["triples"]}
    assert ("t^3+t^2+t+2", "t+1") in pairs
    for t in data["triples"]:
        assert t["certificate"]["verdict"] == "VALID"


def test_search_threads_agrees_with_serial(capsys):
    base = ["search", "--field-order", "3", "--max-deg1", "3",
            "--max-deg2", "1", "--json"]
    _, serial, _ = run(base, capsys)
    _, threaded, _ = run(base + ["--threads", "2"], capsys)
    assert serial == threaded


def recording_pool(monkeypatch):
    """Replace ProcessPoolExecutor by an in-process stand-in; returns the
    list of the max_workers each pool was asked for.  No process starts."""
    import concurrent.futures
    asked = []

    class Pool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    return asked


def test_threads_above_the_cap_exit_2_before_any_work(capsys, monkeypatch):
    # a pool forks all its workers at the first job, so --threads is
    # bounded; the bound is read before the candidates are sieved
    asked = recording_pool(monkeypatch)
    monkeypatch.setattr(search, "candidates", lambda *args: pytest.fail("sieved"))
    code, out, err = run(["search", "--field-order", "3", "--max-deg1", "3",
                          "--max-deg2", "1",
                          "--threads", str(search.MAX_WORKERS + 1)], capsys)
    assert code == 2 and out == "" and "at most 16 workers" in err
    assert asked == []


def test_threads_at_the_cap_asks_for_one_worker_per_job(capsys, monkeypatch):
    # q = 3 (2, 2) has 4 pairs past the cheap filters: 16 threads ask for 4
    base = ["search", "--field-order", "3", "--max-deg1", "2", "--max-deg2", "2"]
    _, serial, _ = run(base, capsys)
    asked = recording_pool(monkeypatch)
    code, threaded, _ = run(base + ["--threads", str(search.MAX_WORKERS)], capsys)
    assert code == 0 and threaded == serial
    assert search.MAX_WORKERS == 16 and asked == [4]


def test_threads_is_a_search_only_option(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["wset", "--field-order", "3", "--y", "t", "--threads", "2"])
    assert exc.value.code == 2


def test_local_rejects_field_that_does_not_split(capsys):
    # t+1 splits in F(sqrt(t+2)): hypothesis 1 fails, so the input is invalid
    code, _, err = run(["local", "--field-order", "3", "--ram1", "t^3+t^2+t+2",
                        "--ram2", "t+1", "--radicand", "t+2"], capsys)
    assert code == 2 and "does not split" in err


def test_local_split_infinity_fails(capsys):
    # ram1 * ram2 = t^4+2t^3+2t^2+2 has even degree and leading coefficient
    # 1, so infinity splits in K: the local rule at infinity fails there,
    # although K splits D and both ramified primes have odd degree
    base = ["local", "--field-order", "3", "--ram1", "t^3+t^2+t+2",
            "--ram2", "t+1", "--radicand", "t^4+2t^3+2t^2+2"]
    code, out, _ = run(base, capsys)
    assert code == 1
    assert "infinity        FAIL" in out.splitlines()
    code, out, _ = run(base + ["--json"], capsys)
    assert code == 1
    data = json.loads(out)
    assert data["infinity_ok"] is False and data["ok"] is False
