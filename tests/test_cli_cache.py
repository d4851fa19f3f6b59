import hashlib
import json
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest

from twindual import cli
from twindual.cache import MatrixCache, cache_key
from twindual.cli import main
from twindual.linalg import Matrix
from twindual.scalars import QContext


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cache_roundtrip_exact(tmp_path):
    cache = MatrixCache(tmp_path)
    m = Matrix.exact([[Fraction(-7, 3), 0], [Fraction(10 ** 30), Fraction(1, 2 ** 70)]])
    key = cache_key(kind="test", n=4)
    cache.store(key, m)
    back = cache.lookup(key)
    assert back is not None and back.equals(m)


def test_cache_roundtrip_approx(tmp_path):
    cache = MatrixCache(tmp_path)
    m = Matrix.approx(np.array([[1.5 + 2j, -0.25], [0, 3e-12]]))
    key = cache_key(kind="test-approx", tolerance=1e-9)
    cache.store(key, m)
    back = cache.lookup(key)
    assert back is not None and back.equals(m, 0)


def test_cache_key_sensitivity(tmp_path):
    cache = MatrixCache(tmp_path)
    cache.store(cache_key(kind="k", q="4"), Matrix.identity(2))
    assert cache.lookup(cache_key(kind="k", q="9")) is None
    assert cache.lookup(cache_key(kind="k", q="4", tolerance=1e-6)) is None


def test_cache_corruption_recovers(tmp_path):
    cache = MatrixCache(tmp_path)
    key = cache_key(kind="corrupt")
    path = cache.store(key, Matrix.identity(2))
    path.write_bytes(path.read_bytes()[:-5] + b"junk!")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cache.lookup(key) is None
    assert any("corrupt" in str(w.message) for w in caught)
    calls = []

    def builder():
        calls.append(1)
        return Matrix.identity(2)

    rebuilt = cache.get_or_build(key, builder)
    assert calls and rebuilt.is_identity()
    assert cache.lookup(key) is not None


def _signed(payload: bytes) -> bytes:
    return payload + hashlib.sha256(payload).hexdigest().encode()


@pytest.mark.parametrize("entry", [
    lambda blob: blob[:40],  # truncated below the digest length
    lambda blob: _signed(b'{"cols": 2, "entries": ['),  # invalid JSON
    lambda blob: _signed(json.dumps(  # wrong entry count
        {"rows": 2, "cols": 2, "mode": "exact", "entries": ["1", "0", "0"]}).encode()),
    lambda blob: _signed(json.dumps(  # Fraction raises ZeroDivisionError
        {"rows": 2, "cols": 2, "mode": "exact", "entries": ["1/0", "0", "0", "1"]}).encode()),
], ids=["truncated", "invalid-json", "entry-count", "zero-denominator"])
def test_cache_corrupt_entry_is_a_rebuilt_miss(tmp_path, entry):
    cache = MatrixCache(tmp_path)
    key = cache_key(kind="corrupt")
    path = cache.store(key, Matrix.identity(2))
    bad = entry(path.read_bytes())
    path.write_bytes(bad)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cache.lookup(key) is None
    assert any("corrupt cache entry" in str(w.message) for w in caught)
    assert not path.exists()
    path.write_bytes(bad)
    calls = []

    def builder():
        calls.append(1)
        return Matrix.identity(2)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rebuilt = cache.get_or_build(key, builder)
    assert calls == [1] and rebuilt.is_identity()
    assert cache.lookup(key).to_json() == Matrix.identity(2).to_json()


def test_cache_bit_identical_exact(tmp_path):
    cache = MatrixCache(tmp_path)
    m = Matrix.exact([[Fraction(355, 113), Fraction(-2)]])
    cache.store("pi", m)
    assert cache.lookup("pi").to_json() == m.to_json()


def test_cache_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv("TWINDUAL_CACHE", str(tmp_path / "envcache"))
    cache = MatrixCache()
    cache.store("x", Matrix.identity(1))
    assert (tmp_path / "envcache").exists()


def test_cli_admissible_ok(capsys):
    code, out, _ = run_cli(capsys, "admissible", "--n", "4", "--q", "4/1")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["report"]["admissible"] is True


def test_cli_admissible_inadmissible_exit1(capsys):
    code, out, _ = run_cli(capsys, "admissible", "--n", "3", "--q", "1")
    assert code == 1
    assert json.loads(out)["report"]["excluded_check"] == "fail"


def test_cli_rep_all_checks(capsys):
    code, out, _ = run_cli(capsys, "rep", "--n", "4", "--q", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert {r["title"] for r in payload["reports"]}


def test_cli_rep_single_check_approx(capsys):
    code, out, _ = run_cli(capsys, "rep", "--n", "4", "--approx", "2,1", "--check", "twin")
    assert code == 0
    assert json.loads(out)["ok"] is True


def test_cli_density(capsys):
    code, out, _ = run_cli(
        capsys, "density", "--n", "4", "--q", "4", "--check", "rodrigues",
        "--check", "order", "--kmax", "200",
    )
    assert code == 0
    payload = json.loads(out)
    assert all(o["agree"] for o in payload["orders"])


def test_cli_diagrams_presentation(capsys):
    code, out, _ = run_cli(
        capsys, "diagrams", "--r", "3", "--verify-presentation",
        "--delta", "3", "--delta-prime", "1",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"]["all"] == 76
    assert payload["presentation"]["ok"] is True


def test_cli_duality_exact(capsys):
    code, out, _ = run_cli(
        capsys, "duality", "--n", "4", "--q", "4/1", "--r", "2", "--center",
    )
    assert code == 0
    payload = json.loads(out)
    rep = payload["reports"][0]
    assert rep["dim_commutant"] == 10 and rep["center_dim"] == 4


@pytest.mark.parametrize("mode", ["exact", "approx"])
def test_cli_duality_runs_every_diagram_count(capsys, mode):
    # the image dimension is a closed form, so no count of diagrams gates a
    # run: r = 5 on E has 9496 of them.  Exact r = 6 at n = 3 still meets
    # the exact size gate, 3^6 = 729 > 256
    for n, r, image in ((2, 4, 128), (2, 5, 512), (3, 5, 4477)):
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "duality", "--n", str(n), "--q", "4", "--r", str(r),
                               "--mode", mode)
        rep = json.loads(out)["reports"][0]
        assert code == 0 and rep["dim_commutant"] == rep["dim_diagram_image"] == image, (n, r)
        assert time.perf_counter() - start < 10, (n, r)
    if mode == "exact":
        code, _, err = run_cli(capsys, "duality", "--n", "3", "--q", "4", "--r", "6")
        assert code == 2 and "729" in err and "256" in err


def test_cli_has_no_tolerance_option(capsys):
    # the answers depend on q alone; a cutoff of 1e-30 once stated
    # commutant 1 against image 10 at this ordinary q
    with pytest.raises(SystemExit) as exc:
        main(["duality", "--n", "4", "--q", "4", "--mode", "approx", "--r", "2",
              "--tolerance", "1e-30"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tolerance 1e-30" in capsys.readouterr().err


def test_cli_duality_refuses_q1(capsys):
    code, out, err = run_cli(capsys, "duality", "--n", "4", "--q", "1", "--r", "2")
    assert code == 3
    refusal = json.loads(err)
    assert refusal["refused"] is True
    # the CLI catches the refusal through scalars, without importing duality
    from twindual import duality, scalars

    assert duality.InadmissibleParameterError is scalars.InadmissibleParameterError


def test_cli_duality_forced_q1(capsys):
    code, out, _ = run_cli(capsys, "duality", "--n", "4", "--q", "1", "--r", "2", "--force")
    assert code == 1  # runs, but the double-centralizer equality fails at q = 1
    rep = json.loads(out)["reports"][0]
    assert rep["forced"] is True
    assert rep["double_centralizer_ok"] is False
    # the reverse check fails at q = 1, so no GF(p) certificate closes and
    # the rational envelope search gives the report
    assert rep["dim_group_envelope"] == 23
    assert rep["envelope_saturated"] is True
    assert rep["reverse_ok"] is False


def test_cli_duality_csv_sweep(capsys):
    code, out, _ = run_cli(
        capsys, "duality", "--n", "4", "--q", "4", "--r", "1,2", "--output", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,r,")
    assert len(lines) == 3


def test_cli_duality_on_f(capsys):
    code, out, _ = run_cli(
        capsys, "duality", "--n", "5", "--q", "4", "--mode", "approx", "--r", "2", "--on", "F",
    )
    assert code == 0
    rep = json.loads(out)["reports"][0]
    assert rep["dim_commutant"] == 3 and rep["faithful"] is True


def test_cli_duality_ok_where_the_sufficient_cutoff_is_missed(capsys):
    # n - 1 = 3 < 2r = 4, so the stated F cutoff promises nothing, yet the
    # image is all of B_2: the threshold is not matched, and nothing fails
    code, out, _ = run_cli(
        capsys, "duality", "--n", "4", "--q", "4", "--mode", "approx", "--r", "2", "--on", "F",
    )
    assert code == 0
    payload = json.loads(out)
    rep = payload["reports"][0]
    assert payload["ok"] is True and rep["ok"] is True
    assert rep["faithful"] is True and rep["faithful_matches_threshold"] is False
    assert rep["dim_diagram_image"] == rep["dim_pb_abstract"] == 3


def test_cli_duality_refuses_e_only_inputs_on_f(capsys):
    base = ("duality", "--n", "5", "--q", "4", "--r", "2", "--on", "F")
    for extra in (("--center",), ("--delta-prime", "1;3")):
        code, out, err = run_cli(capsys, *base, *extra)
        assert code == 2 and out == ""
        assert "full space E" in err


def test_cli_duality_refusal_precedes_domain_errors(capsys):
    # q = i is inadmissible and also makes [4]_q = 0; the refusal comes first
    for space in ("E", "F"):
        code, _, err = run_cli(capsys, "duality", "--n", "4", "--approx", "0,1", "--r", "2",
                               "--on", space)
        assert code == 3
        assert json.loads(err)["refused"] is True


def test_cli_action_emits_and_caches(capsys, tmp_path):
    argv = ["action", "--n", "4", "--q", "4", "--r", "2", "--delta-prime", "7",
            "--emit", "s:1", "--emit", "e:1", "--emit", "p:2",
            "--emit", "diagram:1-2,1'-2'", "--cache-dir", str(tmp_path)]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    payload = json.loads(out)
    assert set(payload["matrices"]) == {"s:1", "e:1", "p:2", "diagram:1-2,1'-2'"}
    assert payload["matrices"]["s:1"]["rows"] == 16
    assert len(list(tmp_path.glob("*.json"))) == 4
    # second run hits the cache and reproduces the same bytes
    code2, out2, _ = run_cli(capsys, *argv)
    assert code2 == 0 and out2 == out
    # approx entries are keyed apart and also come back byte for byte
    code, out, _ = run_cli(capsys, *argv, "--mode", "approx")
    assert code == 0 and json.loads(out)["mode"] == "approx"
    assert len(list(tmp_path.glob("*.json"))) == 8
    code2, out2, _ = run_cli(capsys, *argv, "--mode", "approx")
    assert code2 == 0 and out2 == out


def test_cli_exact_reports_are_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "duality", "--n", "4", "--q", "4", "--r", "2")
    _, out2, _ = run_cli(capsys, "duality", "--n", "4", "--q", "4", "--r", "2")
    assert out1 == out2


def test_cli_usage_errors(capsys):
    code, _, err = run_cli(capsys, "rep", "--n", "4", "--q", "2")
    assert code == 2  # q = 2 is not a perfect square and no sqrt given
    assert "sqrt" in err
    # q alone fixes the context: its root is always the positive one
    with pytest.raises(SystemExit) as exc:
        main(["rep", "--n", "4", "--q", "4", "--sqrt-q", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --sqrt-q 2" in capsys.readouterr().err
    # --approx is a second q, not a mode switch for --q
    with pytest.raises(SystemExit) as exc:
        main(["duality", "--n", "3", "--q", "4", "--approx", "2,1", "--r", "2"])
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err
    # a non-square q has no rational root in either mode, so the advice
    # names only --approx
    for mode in ("exact", "approx"):
        code, out, err = run_cli(capsys, "duality", "--n", "4", "--q", "2", "--r", "2",
                                 "--mode", mode)
        assert code == 2 and out == ""
        assert "not a perfect rational square" in err and "--approx" in err
        assert "pass --sqrt-q" not in err
    # a comma scalar has one parser: the one --approx uses
    for flag in ("--delta-prime", "--delta"):
        code, out, err = run_cli(capsys, "diagrams", "--r", "2", "--verify-presentation",
                                 flag, "1,2,3")
        assert code == 2 and out == ""
        assert f"cannot parse {flag} '1,2,3': expected RE or RE,IM" in err
    # [n-2]_q! means nothing at n = 1, so admissible keeps the n-domain of
    # every other command
    for q_args in (("--q", "4"), ("--approx", "2,1")):
        code, out, err = run_cli(capsys, "admissible", "--n", "1", *q_args)
        assert code == 2 and out == ""
        assert err == "twindual: error: n must be at least 2\n"
    # argparse reads a value that starts with "-" and is not a plain number
    # as an option, so such a value is given as --flag=VALUE
    for *argv, flag, value in (
            ("duality", "--n", "3", "--q", "4", "--r", "2", "--delta-prime", "-3/2"),
            ("duality", "--n", "3", "--q", "4", "--r", "1", "--delta-prime", "-1;2"),
            ("admissible", "--n", "3", "--approx", "-0.5,0.866")):
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, value])
        assert exc.value.code == 2
        assert f"argument {flag}: expected one argument" in capsys.readouterr().err
        code, out, err = run_cli(capsys, *argv, f"{flag}={value}")
        assert code == 0 and out and err == ""


@pytest.mark.parametrize("argv", [
    ("rep",),
    ("density", "--kmax", "200", "--k-powers", "5"),
    ("duality", "--r", "2", "--center"),
    ("duality", "--r", "2", "--on", "F"),
    ("action", "--r", "2", "--emit", "s:1", "--emit", "e:1", "--emit", "p:1",
     "--emit", "diagram:1-2',2-1'"),
], ids=lambda argv: " ".join(argv[:3]))
def test_payloads_do_not_depend_on_the_sign_of_sqrt_q(argv, monkeypatch, tmp_path):
    # the split bases at s and -s differ by a diagonal +-1 conjugation, so
    # every report is the same at QContext.exact(2) and QContext.exact(-2)
    args = cli.build_parser().parse_args([argv[0], "--n", "4", "--q", "4", *argv[1:]])
    results = []
    for s in (2, -2):
        monkeypatch.setattr(cli, "build_qcontext", lambda _args, s=s: QContext.exact(s))
        monkeypatch.setenv("TWINDUAL_CACHE", str(tmp_path / str(s)))
        results.append(args.func(args))
    assert results[0] == results[1]


@pytest.mark.parametrize("argv", [
    ("duality", "--n", "4", "--q", "4", "--r", "x"),
    ("duality", "--n", "4", "--q", "4", "--r", "2", "--delta-prime", "abc"),
    ("admissible", "--n", "4", "--q", "abc"),
    ("admissible", "--n", "4", "--q", "1/0"),
    ("diagrams", "--r", "2", "--verify-presentation", "--delta", "abc"),
    ("action", "--n", "4", "--q", "4", "--r", "2", "--emit", "s:x"),
    ("admissible", "--n", "4", "--approx", "2,1,5"),
    ("admissible", "--n", "4", "--approx", "2,1,"),
])
def test_cli_malformed_number_is_a_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("twindual: error: cannot parse")


@pytest.mark.parametrize("argv", [
    *((command, *args, "--output", "csv") for command, *args in (
        ("admissible", "--n", "4", "--q", "4"),
        ("rep", "--n", "4", "--q", "4", "--check", "twin"),
        ("density", "--n", "4", "--q", "4", "--check", "rodrigues"),
        ("diagrams", "--r", "2"),
        ("action", "--n", "4", "--q", "4", "--r", "2", "--emit", "s:1"),
    )),
    ("admissible", "--n", "4", "--q", "4", "--out", "/nonexistent-dir/x.json"),
    ("action", "--n", "4", "--q", "4", "--r", "2", "--emit", "diagram:xyz"),
    ("duality", "--n", "4", "--q", "4", "--r", "2", "--delta-prime", "1,1"),
    ("action", "--n", "4", "--q", "4", "--r", "2", "--delta-prime", "1,1", "--emit", "p:1"),
    ("admissible", "--n", "4"),
    ("action", "--n", "4", "--q", "4", "--r", "2", "--emit", "x:1"),
    ("action", "--n", "4", "--q", "4", "--r", "2", "--emit", "s:2"),
    ("diagrams", "--r", "0"),
    ("density", "--n", "4", "--q", "4", "--check", "order", "--kmax", "0"),
    ("density", "--n", "4", "--q", "4", "--check", "powers", "--k-powers", "0"),
    ("density", "--n", "4", "--q", "4", "--check", "powers", "--k-powers", "-3"),
])
def test_cli_malformed_input_or_output_is_a_usage_error(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.setenv("TWINDUAL_CACHE", str(tmp_path))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("twindual: error: ")


def test_cli_out_of_memory_is_not_a_failed_check(capsys, monkeypatch):
    # exit 1 means a statement failed; a run that outgrows memory proved nothing
    import twindual.duality

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(twindual.duality, "duality_check", exhausted)
    code, out, err = run_cli(capsys, "duality", "--n", "4", "--q", "4", "--r", "2")
    assert (code, out, err) == (2, "", "twindual: error: out of memory in duality\n")


def test_cli_approx_near_one_q_certifies(capsys):
    # sqrt q = 1001/1000: singular values of the invariant systems are small
    # but far above tol * sigma_1, so approx agrees with exact
    code, out, _ = run_cli(capsys, "duality", "--n", "4", "--q", "1002001/1000000",
                           "--mode", "approx", "--r", "2")
    assert code == 0
    rep = json.loads(out)["reports"][0]
    assert rep["dim_commutant"] == rep["dim_diagram_image"] == 10


def test_cli_real_approx_keeps_q_exact_for_rotation_orders(capsys):
    # q = 1.00001 is not 1, so no rotation has a finite order
    code, out, _ = run_cli(capsys, "density", "--n", "4", "--approx", "1.00001,0",
                           "--check", "order", "--check", "alt")
    assert code == 0
    payload = json.loads(out)
    assert [o["verdict"] for o in payload["orders"]] == ["no-order-up-to(2000)"] * 2
    assert payload["alt_density"]["all_infinite_up_to_k_max"] is True


def test_cli_real_approx_certifies_like_approx_mode(capsys):
    code, out, err = run_cli(capsys, "duality", "--n", "3", "--approx", "4,0", "--r", "2")
    assert (code, err) == (0, "")
    assert run_cli(capsys, "duality", "--n", "3", "--q", "4", "--mode", "approx",
                   "--r", "2") == (0, out, "")


def test_cli_real_approx_one_is_excluded(capsys):
    # q = 1 = w(-1/2), decided exactly although the run is approx
    code, out, _ = run_cli(capsys, "admissible", "--n", "4", "--approx", "1,0")
    assert code == 1
    assert json.loads(out)["report"]["excluded_check"] == "fail"


def test_cli_gaussian_q_on_the_unit_circle_is_admissible(capsys):
    # q = (3+4i)/5 has lam = -3/8, not a rational-angle cosine
    code, out, _ = run_cli(capsys, "admissible", "--n", "4", "--approx", "0.6,0.8")
    assert code == 0
    assert json.loads(out)["report"]["excluded_check"] == "pass"
    code, out, _ = run_cli(capsys, "duality", "--n", "4", "--approx", "0.6,0.8", "--r", "2")
    assert code == 0
    rep = json.loads(out)["reports"][0]
    assert rep["dim_commutant"] == rep["dim_diagram_image"] == 10
    assert rep["dim_group_envelope"] == 44 and rep["forced"] is False


def test_cli_q_i_is_excluded_and_a_root_of_q_int(capsys):
    code, out, _ = run_cli(capsys, "admissible", "--n", "4", "--approx", "0,1")
    assert code == 1
    report = json.loads(out)["report"]
    assert report["excluded_check"] == "fail" and report["q_int_nonzero"] is False


@pytest.mark.parametrize("argv", [
    ("--n", "4", "--approx", "1.0000000000000000001,0", "--r", "2"),
    ("--n", "4", "--approx", "1,1e-15", "--r", "2"),
    ("--n", "4", "--approx", "1.00001,0", "--r", "2"),
    ("--n", "3", "--approx=-0.5,0.8660254037844386", "--r", "1"),
])
def test_cli_approx_is_decided_for_its_double(capsys, argv):
    # the run computes with the double, at TOLERANCE: the first decimal's
    # double is 1.0, and the others' cannot be told from 1 or e^(2 pi i/3)
    # there, although each is exactly admissible; at 1.00001 the run stated
    # commutant 15 against image 10, and at the cube root it stopped on
    # [3]_q = 0 as a usage error
    code, out, err = run_cli(capsys, "duality", *argv)
    assert code == 3 and out == ""
    assert json.loads(err)["report"]["excluded_check"] == "fail"


def test_cli_module_runs_as_subprocess():
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "twindual.cli", "admissible", "--n", "4", "--q", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"] is True


def test_duality_runs_never_load_numpy_ma():
    # importing numpy.ma costs a process about 15 ms, and neither mode of
    # the duality pipeline needs it
    import subprocess
    import sys

    script = """
import sys
from twindual.cli import main
codes = [main(["duality", "--n", "4", "--q", "4", "--r", "2", *mode])
         for mode in ([], ["--mode", "approx"])]
print(codes, "numpy.ma" in sys.modules)
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.stdout.splitlines()[-1] == "[0, 0] False", proc.stderr[-2000:]


@pytest.mark.parametrize("argv, code, absent", [
    (("admissible", "--n", "4", "--q", "4"), 0, "numpy"),
    (("admissible", "--n", "3", "--approx", "2,1"), 0, "numpy"),
    (("diagrams", "--r", "3", "--verify-presentation"), 0, "numpy"),
    (("duality", "--n", "4", "--q", "4", "--r", "2"), 0, "twindual.density twindual.cache"),
    # csv is refused before the command imports anything
    (("rep", "--n", "4", "--q", "4", "--output", "csv"), 2, "numpy twindual.hecke"),
], ids=["admissible-rational", "admissible-complex", "diagrams", "duality", "csv-refused"])
def test_each_command_loads_only_its_modules(argv, code, absent):
    import subprocess
    import sys

    script = f"""
import json, sys
from twindual.cli import main
code = main({list(argv)!r})
print(json.dumps([code, sorted(sys.modules)]))
"""
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    got, loaded = json.loads(proc.stdout.splitlines()[-1])
    assert got == code, proc.stderr[-2000:]
    assert not set(absent.split()) & set(loaded)
    if argv[0] == "admissible":
        assert {m for m in loaded if m.startswith("twindual")} == {
            "twindual", "twindual.cli", "twindual.scalars"}


def test_cli_pretty_output(capsys):
    code, out, _ = run_cli(capsys, "admissible", "--n", "4", "--q", "4", "--output", "pretty")
    assert code == 0
    assert "admissible" in out


def test_cli_out_file(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(capsys, "admissible", "--n", "4", "--q", "4", "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["ok"] is True
