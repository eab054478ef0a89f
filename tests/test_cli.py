import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from latq import cli
from latq import gram as gm
from latq import lattices as lt
from latq import qseries as qs


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_envelope_and_determinism(capsys):
    code, out1, _ = run_cli(capsys, "verdict", "--d", "12")
    assert code == 0
    code, out2, _ = run_cli(capsys, "verdict", "--d", "12")
    assert out1 == out2
    env = json.loads(out1)
    assert env["command"] == "verdict"
    assert env["params"] == {"d": 12}
    assert env["result"]["classification"] == "GeneralType"
    assert env["result"]["weight"] <= 19
    assert isinstance(env["result"]["weight"], int)


def test_global_flags_both_positions(capsys):
    code, out_a, _ = run_cli(capsys, "--format", "csv", "repcount", "--lattice", "D6", "--norm", "2")
    code_b, out_b, _ = run_cli(capsys, "repcount", "--lattice", "D6", "--norm", "2", "--format", "csv")
    assert code == code_b == 0
    assert out_a == out_b
    assert out_a.splitlines()[1] == "D6,2,60"


def test_theta_both_methods(capsys):
    code, out, _ = run_cli(capsys, "theta", "--lattice", "D6", "--prec", "3", "--method", "both")
    assert code == 0
    env = json.loads(out)
    assert env["result"]["coefficients"] == [1, 60, 252]


def test_theta_mismatch_exits_3(capsys, monkeypatch):
    from latq import qseries as qs

    monkeypatch.setitem(cli._THETA_CLOSED, "D6", lambda prec: qs.QSeries(1, prec, tuple([1] + [0] * (prec - 1))))
    code, out, err = run_cli(capsys, "theta", "--lattice", "D6", "--prec", "3", "--method", "both")
    assert code == cli.CROSSCHECK_FAILED
    assert out == "" and err.startswith("internal cross-check failure: cli.theta_closed_vs_enum: ")


def assert_check_fires(capsys, message, *argv):
    # exit 3, nothing on stdout, and the failed check named on stderr
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (cli.CROSSCHECK_FAILED, "")
    assert err.startswith(f"internal cross-check failure: {message}"), err


@pytest.mark.parametrize(
    "module, attr, wrong, message, argv",
    [
        (
            "polarisation",
            "orbit_count_oracle",
            lambda oracle: lambda t, d, f: oracle(t, d, f) + 1,
            "cli.orbit_count: ",
            ["orbits", "--t", "6", "--d", "3", "--f", "3"],
        ),
        (
            "polarisation",
            "orbit_count_oracle",
            lambda oracle: lambda t, d, f: oracle(t, d, f) + ((t, d, f) == (2, 2, 2)),
            "cli.orbit_sweep: orbit count formula and oracle differ at (t, d, f) = (2, 2, 2)",
            ["--format", "csv", "orbits", "--t", "3", "--d", "3", "--sweep"],
        ),
        (
            "polarisation",
            "stable_index_oracle",
            lambda oracle: lambda t, d, f: 2 * oracle(t, d, f),
            "cli.stable_index: ",
            ["index", "--t", "6", "--d", "5", "--f", "1"],
        ),
        (
            "kodaira",
            "orthogonal_root_count",
            lambda count: lambda lam: count(lam) + 2 * (tuple(lam) == (-1, 2, 3, 1, 2, 1, 3)),
            "cli.table1_witnesses: witness rows fail their norm or root count at d = [9]",
            ["table1"],
        ),
    ],
    ids=["orbits", "orbits-sweep", "index", "table1"],
)
def test_cli_check_fires(capsys, monkeypatch, module, attr, wrong, message, argv):
    # one side of each comparison is patched, the other left as it is
    mod = importlib.import_module(f"latq.{module}")
    monkeypatch.setattr(mod, attr, wrong(getattr(mod, attr)))
    assert_check_fires(capsys, message, *argv)


def test_library_check_exits_3_through_the_cli(capsys, monkeypatch):
    # one wrong coefficient of the closed E7 identity fails the verdict's
    # shell check; the caches are cleared so that the shell is recounted
    from latq import kodaira as ko

    table = list(lt.theta_e7(256))
    table[12] += 1
    monkeypatch.setattr(gm, "_theta_e7_table", lambda prec: tuple(table))
    ko.search.cache_clear()
    ko._shell_classes.cache_clear()
    assert_check_fires(capsys, "kodaira.shell_size: shell size mismatch at d=12", "verdict", "--d", "12")


@pytest.mark.parametrize(
    "attr, wrong, message, lattice",
    [
        # twice the divisor leaves half its constant term as the quotient's
        ("scale_tau", lambda scale: lambda s, m: 2 * scale(s, m), "qseries.integral_quotient: quotient is not integral", "A2"),
        # twice theta3(tau + 1) makes the constant term of the sum 1 + 2^n
        ("shift_tau_by_one", lambda shift: lambda s: 2 * shift(s), "qseries.even_theta_d: theta_D coefficient is not an even integer", "D4"),
    ],
    ids=["theta_A", "theta_D"],
)
def test_closed_theta_check_exits_3_through_the_cli(capsys, monkeypatch, attr, wrong, message, lattice):
    # one input of the closed form is patched; its cache is cleared so that
    # the form is rebuilt, and a failed build caches nothing
    monkeypatch.setattr(qs, attr, wrong(getattr(qs, attr)))
    qs.theta_A.cache_clear()
    qs.theta_D.cache_clear()
    assert_check_fires(capsys, message, "theta", "--lattice", lattice, "--prec", "8", "--method", "closed")


@pytest.mark.parametrize("prec", [16, 64])
def test_theta_e7_closed_form_agrees_with_enumeration(capsys, prec):
    # the closed form and the coordinate model are cross-checked by `both`
    code, out, _ = run_cli(capsys, "theta", "--lattice", "E7", "--prec", str(prec), "--method", "both")
    assert code == 0
    both = json.loads(out)["result"]["coefficients"]
    assert both[:3] == [1, 126, 756] and len(both) == prec
    for method in ("closed", "enum"):
        code, out, _ = run_cli(capsys, "theta", "--lattice", "E7", "--prec", str(prec), "--method", method)
        assert code == 0
        assert json.loads(out)["result"]["coefficients"] == both


def test_siegel_report_rationals_are_strings(capsys):
    code, out, _ = run_cli(capsys, "siegel", "--form", "A5", "--t", "6", "--report")
    assert code == 0
    env = json.loads(out)
    res = env["result"]
    assert res["r"] == 330 and isinstance(res["r"], int)
    assert res["alpha"]["3"] == "22/27"
    assert res["local_factors"]["3"] == "11/12"
    assert res["cohen_H"] == "-1/1"


def test_orbits_single_and_sweep(capsys):
    code, out, _ = run_cli(capsys, "orbits", "--t", "6", "--d", "3", "--f", "3")
    assert code == 0
    env = json.loads(out)
    assert env["result"]["count"] == 2 and env["result"]["exists"]
    code, out, _ = run_cli(capsys, "--format", "csv", "orbits", "--t", "6", "--d", "6", "--sweep")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,d,f,case,exists,count_formula,count_oracle,match"
    assert all(line.endswith("True") for line in lines[1:])
    code, _, err = run_cli(capsys, "orbits", "--t", "6", "--d", "3")
    assert code == cli.USAGE_ERROR


def test_index_refusal_exit_2(capsys):
    code, _, err = run_cli(capsys, "index", "--t", "4", "--d", "4", "--f", "4")
    assert code == cli.REFUSED
    assert "w = 2" in err
    code, out, _ = run_cli(capsys, "index", "--t", "6", "--d", "5", "--f", "1")
    assert code == 0
    assert json.loads(out)["result"]["index"] == 4


def test_e7_search(capsys):
    code, out, _ = run_cli(capsys, "e7-search", "--d", "12", "--all")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["min_orthogonal"] == 14 and res["weight"] == 19 and res["success"]
    assert res["achievable"][0] == 14


def test_inequality_csv(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv", "inequality", "--coeff", "5", "--m-max", "25")
    assert code == 0
    lines = out.splitlines()[1:]
    falses = [int(line.split(",")[0]) for line in lines if line.endswith("False")]
    assert falses == [m for m in range(1, 26) if m < 20 and m != 17]


def test_table1(capsys):
    code, out, _ = run_cli(capsys, "table1")
    assert code == 0
    rows = json.loads(out)["result"]
    assert len(rows) == 9
    assert all(r["match"] for r in rows)


def test_repcount_past_int64(capsys):
    code, out, _ = run_cli(capsys, "repcount", "--lattice", "D24", "--norm", "76")
    assert code == 0
    assert json.loads(out)["result"]["count"] == 11318878100909407680


def test_usage_error_exit_1(capsys):
    assert cli.main(["theta", "--lattice", "NOPE"]) == cli.USAGE_ERROR
    assert cli.main(["repcount", "--lattice", "D6"]) == cli.USAGE_ERROR


@pytest.mark.parametrize(
    "argv, code",
    [
        (("verdict", "--d", "0"), cli.USAGE_ERROR),
        (("verdict", "--d", "-3"), cli.USAGE_ERROR),
        (("e7-search", "--d", "0"), cli.USAGE_ERROR),
        (("siegel", "--form", "S5", "--t", "0"), cli.USAGE_ERROR),
        (("index", "--t", "4", "--d", "4", "--f", "4"), cli.REFUSED),
        (("repcount", "--lattice", "U", "--norm", "0"), cli.USAGE_ERROR),
        (("repcount", "--lattice", "U", "--norm", "2"), cli.USAGE_ERROR),
        (("orbits", "--t", "3", "--d", "3", "--f", "0"), cli.USAGE_ERROR),
        (("orbits", "--t", "3", "--d", "3", "--f", "-2"), cli.USAGE_ERROR),
        (("theta", "--lattice", "D4", "--prec", "0"), cli.USAGE_ERROR),
        (("theta", "--lattice", "D4", "--prec", "-2", "--method", "closed"), cli.USAGE_ERROR),
        (("inequality", "--coeff", "5", "--m-max", "0"), cli.USAGE_ERROR),
        (("theta", "--lattice", "E7", "--prec", "-3", "--method", "enum"), cli.USAGE_ERROR),
        (("index", "--t", "3", "--d", "3", "--f", "0"), cli.USAGE_ERROR),
    ],
)
def test_bad_input_exit_codes(capsys, argv, code):
    code_got, out, err = run_cli(capsys, *argv)
    assert code_got == code
    assert out == "" and "Traceback" not in err
    if argv[0] == "inequality":
        assert err.startswith("error:")


def test_theta_enum_prec_0_is_empty(capsys):
    code, out, _ = run_cli(capsys, "theta", "--lattice", "D4", "--prec", "0", "--method", "enum")
    assert code == 0
    assert json.loads(out)["result"]["coefficients"] == []


def test_refused_theta_keeps_cache_records(tmp_path, capsys):
    # a refused prec must not reach the cache: a header the loader rejects
    # would make the next store start from nothing and drop every record
    cache = str(tmp_path / "theta.cache")
    code, _, _ = run_cli(capsys, "--cache", cache, "theta", "--lattice", "D6", "--prec", "4", "--method", "enum")
    assert code == 0
    before = qs.load_theta_cache(cache)
    code, out, _ = run_cli(capsys, "--cache", cache, "theta", "--lattice", "E7", "--prec", "-3", "--method", "enum")
    assert code == cli.USAGE_ERROR and out == ""
    code, _, _ = run_cli(capsys, "--cache", cache, "theta", "--lattice", "A5", "--prec", "3", "--method", "enum")
    assert code == 0
    after = qs.load_theta_cache(cache)
    assert after[("D6", 1, 4)] == before[("D6", 1, 4)] == [1, 60, 252, 544]
    assert set(after) == {("D6", 1, 4), ("A5", 1, 3)}
    with pytest.raises(ValueError, match="cannot store"):
        qs.save_theta_cache(cache, {**after, ("E7", 1, -3): []})
    assert qs.load_theta_cache(cache) == after


def test_refused_cache_file_is_left_untouched(tmp_path, capsys):
    # a store into a file the loader refuses would drop the intact records
    cache = tmp_path / "theta.cache"
    for lattice in ("D6", "A5"):
        code, _, _ = run_cli(capsys, "--cache", str(cache), "theta", "--lattice", lattice, "--prec", "4", "--method", "enum")
        assert code == 0
    text = cache.read_text()
    assert "\n30\n" in text  # the A5 record's first shell
    cache.write_text(text.replace("\n30\n", "\n31\n", 1))
    corrupt = cache.read_bytes()
    code, out, err = run_cli(capsys, "--cache", str(cache), "theta", "--lattice", "D4", "--prec", "4", "--method", "enum")
    assert code == 0 and json.loads(out)["result"]["coefficients"] == [1, 24, 24, 96]
    assert "leaving cache unchanged" in err
    assert cache.read_bytes() == corrupt


def test_empty_cache_file_is_filled(tmp_path, capsys, monkeypatch):
    # a file made by `touch` holds no records: the first run stores into it
    # and the second reads its answer from it
    argv = ("theta", "--lattice", "D4", "--prec", "3", "--method", "enum")
    _, plain, _ = run_cli(capsys, *argv)
    cache = tmp_path / "theta.cache"
    cache.touch()
    code, out1, err1 = run_cli(capsys, "--cache", str(cache), *argv)
    assert code == 0 and out1 == plain and err1 == ""
    assert qs.load_theta_cache(cache) == {("D4", 1, 3): [1, 24, 24]}

    def no_walk(*args, **kwargs):
        raise AssertionError("cache miss")

    monkeypatch.setattr(lt, "theta_counts", no_walk)
    code, out2, err2 = run_cli(capsys, "--cache", str(cache), *argv)
    assert code == 0 and out2 == plain and err2 == ""
    cache.write_text("\n")
    with pytest.raises(ValueError, match="unrecognized cache file version"):
        qs.load_theta_cache(cache)


def test_bad_input_exit_code_under_optimize():
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "latq.cli", "verdict", "--d", "0"],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == cli.USAGE_ERROR
    assert proc.stdout == b""


def test_cache_roundtrip_and_recovery(tmp_path, capsys):
    cache = str(tmp_path / "theta.cache")
    code, out1, _ = run_cli(capsys, "--cache", cache, "theta", "--lattice", "A5", "--prec", "6", "--method", "enum")
    assert code == 0
    # second run hits the cache and produces identical output
    code, out2, _ = run_cli(capsys, "--cache", cache, "theta", "--lattice", "A5", "--prec", "6", "--method", "enum")
    assert out1 == out2
    # corrupt the cache: the CLI warns, recomputes, and still succeeds
    with open(cache) as fh:
        text = fh.read()
    with open(cache, "w") as fh:
        fh.write(text.replace("30", "31", 1))
    code, out3, err = run_cli(capsys, "--cache", cache, "theta", "--lattice", "A5", "--prec", "6", "--method", "enum")
    assert code == 0
    assert out3 == out1
    assert "ignoring cache" in err
    # a record header that lacks a field is refused the same way
    with open(cache) as fh:
        text = fh.read()
    with open(cache, "w") as fh:
        fh.write(text.replace(" count=", " ", 1))
    code, out4, err = run_cli(capsys, "--cache", cache, "theta", "--lattice", "A5", "--prec", "6", "--method", "enum")
    assert code == 0
    assert out4 == out1
    assert "ignoring cache" in err


def test_theta_default_precision_is_qseries_default():
    from latq import qseries as qs

    assert cli._DEFAULT_PREC == qs.DEFAULT_PREC
