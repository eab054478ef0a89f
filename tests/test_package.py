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
        ["theta", "--lattice", "D6", "--prec", "8", "--method", "enum", "--cache", "CACHE"],
    ],
    ids=lambda argv: " ".join(argv[:1] + [a for a in argv if a in ("--sweep", "closed", "--cache")]),
)
def test_numpy_free_subcommands_do_not_load_numpy(tmp_path, argv):
    cache = tmp_path / "theta.cache"
    # a cache hit: the record is written here, so the child only reads it
    qs.save_theta_cache(cache, {("D6", 1, 8): lt.theta_counts(lt.D(6), 8)})
    got = _cold(_RUN_CLI, *[str(cache) if a == "CACHE" else a for a in argv])
    assert (got["code"], got["numpy"]) == (0, False)
    if argv[0] in ("orbits", "index"):
        # polarisation takes its factorisation from latq.arith
        assert {"latq.siegel", "latq.lattices"}.isdisjoint(got["latq"]), got["latq"]
