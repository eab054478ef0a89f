"""The lazy package namespace and what a cold process loads."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import latq
from latq import lattices as lt
from latq import qseries as qs

SRC = Path(__file__).resolve().parent.parent / "src"


def test_lazy_names_are_the_submodule_objects():
    for name in latq.__all__:
        module = importlib.import_module(f"latq.{latq._EXPORTS[name]}")
        assert getattr(latq, name) is getattr(module, name), name


def test_dir_lists_every_public_name():
    assert set(latq.__all__) <= set(dir(latq))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        latq.no_such_name  # noqa: B018
    assert not hasattr(latq, "_short_vectors")


def _cold(code, *args):
    """Run `code` in a fresh interpreter on this source tree; its last stdout line is JSON."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_bare_import_loads_no_submodule():
    loaded = _cold("import json, sys\nimport latq\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith('latq'))))")
    assert loaded == ["latq"]


_RUN_CLI = """
import contextlib, io, json, sys
import latq.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = latq.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "numpy": "numpy" in sys.modules, "latq": sorted(m for m in sys.modules if m.startswith("latq."))}))
"""


@pytest.mark.parametrize(
    "argv",
    [
        ["table1"],
        ["orbits", "--t", "6", "--d", "3", "--f", "3"],
        ["orbits", "--t", "5", "--d", "6", "--sweep"],
        ["index", "--t", "6", "--d", "5", "--f", "1"],
        ["inequality", "--coeff", "5", "--m-max", "40"],
        ["theta", "--lattice", "A5", "--prec", "16", "--method", "closed"],
        ["theta", "--lattice", "E7", "--prec", "16", "--method", "closed"],
        ["theta", "--lattice", "D6", "--prec", "8", "--method", "enum", "--cache", "CACHE"],
        # the coordinate models count on Python integers, past int64 too
        pytest.param(["repcount", "--lattice", "A8", "--norm", "76"], id="repcount A8"),
        pytest.param(["repcount", "--lattice", "E7", "--norm", "76"], id="repcount E7"),
        pytest.param(["repcount", "--lattice", "D24", "--norm", "76"], id="repcount D24"),
        pytest.param(["theta", "--lattice", "E7", "--prec", "16", "--method", "enum", "--cache", "CACHE"], id="theta E7 enum cache miss"),
        pytest.param(["theta", "--lattice", "A1D4", "--prec", "24", "--method", "both"], id="theta A1D4 both"),
    ],
    ids=lambda argv: " ".join(argv[:1] + [a for a in argv if a in ("E7", "--sweep", "closed", "--cache")]),
)
def test_numpy_free_subcommands_do_not_load_numpy(tmp_path, argv):
    cache = tmp_path / "theta.cache"
    # D6 is a cache hit: the record is written here, so the child only reads
    # it; E7 is a miss, counted by its model in the child
    qs.save_theta_cache(cache, {("D6", 1, 8): lt.theta_counts(lt.D(6), 8)})
    got = _cold(_RUN_CLI, *[str(cache) if a == "CACHE" else a for a in argv])
    assert (got["code"], got["numpy"]) == (0, False)
    if argv[0] in ("orbits", "index"):
        # polarisation takes its factorisation from latq.arith
        assert {"latq.siegel", "latq.lattices", "latq.gram"}.isdisjoint(got["latq"]), got["latq"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verdict", "--d", "12"],
        ["e7-search", "--d", "12"],
        ["inequality", "--coeff", "5", "--m-max", "40"],
        ["siegel", "--form", "A5", "--t", "6", "--report"],
    ],
    ids=lambda argv: argv[0],
)
def test_kodaira_and_siegel_subcommands_do_not_load_lattices(argv):
    # they need only the lattice type and the Gram-matrix algebra of
    # latq.gram; without a bytecode cache every module loaded is compiled
    got = _cold(_RUN_CLI, *argv)
    assert got["code"] == 0 and "latq.lattices" not in got["latq"], got["latq"]


def test_kodaira_and_siegel_do_not_load_lattices():
    code = """
import json, sys
from latq import kodaira, siegel
kodaira.verdict(12)
kodaira.inequality_check(10, 5)
siegel.siegel_r("A5", 6)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("latq."))))
"""
    loaded = _cold(code)
    assert "latq.gram" in loaded and "latq.lattices" not in loaded, loaded


_RUN_CLI_SEQUENCE = """
import contextlib, io, json, sys
import latq.cli
loaded = {}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = latq.cli.main(argv)
    loaded[argv[0]] = [code, "latq.qseries" in sys.modules]
print(json.dumps(loaded))
"""


def test_subcommands_without_theta_do_not_load_qseries():
    # one child runs them in turn, so the first to load qseries is named
    argvs = [
        ["table1"],
        ["orbits", "--t", "6", "--d", "3", "--f", "3"],
        ["index", "--t", "6", "--d", "5", "--f", "1"],
        ["siegel", "--form", "A5", "--t", "6", "--report"],
        ["repcount", "--lattice", "D4", "--norm", "4"],
        ["e7-search", "--d", "12"],
        ["verdict", "--d", "12"],
    ]
    got = _cold(_RUN_CLI_SEQUENCE, json.dumps(argvs))
    assert got == {argv[0]: [0, False] for argv in argvs}


def test_density_route_does_not_load_numpy_ma():
    # numpy.ma comes in with np.unique; the density code counts classes by bincount
    code = """
import json, sys
from latq import siegel as sg
sg.siegel_r("A1D4", 12)
sg.oracle_alpha("A5", 2, 12)
sg.oracle_alpha("A5", 3, 18)
sg.local_density_oracle(3, 8, sg.FORMS["S5"].s_matrix, 7)
print(json.dumps(["numpy" in sys.modules, "numpy.ma" in sys.modules]))
"""
    assert _cold(code) == [True, False]
