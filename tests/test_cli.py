import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from latq import cli


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
    code, _, err = run_cli(capsys, "theta", "--lattice", "D6", "--prec", "3", "--method", "both")
    assert code == cli.CROSSCHECK_FAILED


def test_theta_closed_unavailable(capsys):
    code, _, err = run_cli(capsys, "theta", "--lattice", "E7", "--prec", "3", "--method", "closed")
    assert code == cli.USAGE_ERROR
    code, out, _ = run_cli(capsys, "theta", "--lattice", "E7", "--prec", "3", "--method", "enum")
    assert code == 0
    assert json.loads(out)["result"]["coefficients"] == [1, 126, 756]


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
    ],
)
def test_bad_input_exit_codes(capsys, argv, code):
    assert run_cli(capsys, *argv)[0] == code


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
