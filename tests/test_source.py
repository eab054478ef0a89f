"""Source-level guards on the latq package."""

import ast
import importlib
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "latq"


def _in_functions(node, fn=None):
    """Every node below node, with the name of its innermost enclosing function."""
    for child in ast.iter_child_nodes(node):
        yield child, fn
        yield from _in_functions(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn)


def test_cross_checks_survive_optimised_mode():
    # `python -O` strips assert statements, which would silently drop the
    # cross-checks behind the CLI's exit code 3.  Every check raises through
    # `arith._cross_check` under a unique literal name `<module>.<check>`,
    # and `cli.main` alone turns the failure into CROSSCHECK_FAILED
    offenders, names = [], []
    for path in sorted(SRC.glob("*.py")):
        module = path.stem
        for node, fn in _in_functions(ast.parse(path.read_text(), str(path))):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if isinstance(node, ast.Assert):
                offenders.append(f"{where} assert")
            raised = isinstance(node, ast.Raise) and node.exc is not None and "AssertionError" in {getattr(n, "id", None) for n in ast.walk(node.exc)}
            if raised and (module, fn) != ("arith", "_cross_check"):
                offenders.append(f"{where} raise AssertionError")
            exits = isinstance(node, ast.Return) and node.value is not None and "CROSSCHECK_FAILED" in {getattr(n, "id", None) for n in ast.walk(node.value)}
            if exits and (module, fn) != ("cli", "main"):
                offenders.append(f"{where} return CROSSCHECK_FAILED")
            if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_cross_check":
                name = node.args[1].value if len(node.args) > 1 and isinstance(node.args[1], ast.Constant) else None
                if not (isinstance(name, str) and re.fullmatch(rf"{module}\.[a-z][a-z0-9]*(_[a-z0-9]+)*", name)):
                    offenders.append(f"{where} check name {ast.unparse(node.args[1]) if len(node.args) > 1 else None}")
                names.append(name)
    assert offenders == []
    assert names and len(names) == len(set(names)), sorted(names)


def test_short_vector_walk_is_integer():
    # the Fincke-Pohst walk runs on the integer data of `_cholesky`, which
    # come from Bareiss minors; a Fraction in either would bring back the
    # rational walk or the rational LDL^T they replaced
    trees = [ast.parse((SRC / name).read_text()) for name in ("gram.py", "lattices.py")]
    walks = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name in ("_short_vectors", "enumerate_norm", "_cholesky")]
    assert len(walks) == 3
    for fn in walks:
        assert "Fraction" not in {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(fn)}


def test_short_vector_walk_is_not_recursive():
    # the walk takes one array step per level: no nested walk, no self call
    tree = ast.parse((SRC / "lattices.py").read_text())
    walk = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_short_vectors")
    nested = [node for node in ast.walk(walk) if isinstance(node, (ast.FunctionDef, ast.Lambda)) and node is not walk]
    calls = {node.func.id for node in ast.walk(walk) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert nested == [] and "_short_vectors" not in calls


def test_one_block_bound():
    # the depth-first kernels (the walk, the E7 shell search, the Weyl-orbit
    # tuples) share one block bound and one level stack: `_BLOCK` is assigned
    # and `_Levels` defined in gram alone, `_owners` is gone, and no
    # kernel cuts blocks of its own: none reads `_BLOCK`, calls
    # `searchsorted` or pops a stack, and each walks on `_Levels`
    assigned, defined, owners = set(), set(), set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any(getattr(name, "id", None) == "_BLOCK" for target in targets for name in ast.walk(target)):
                    assigned.add(path.name)
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == "_Levels":
                defined.add(path.name)
            if "_owners" in {getattr(node, "name", None), getattr(node, "id", None), getattr(node, "attr", None)}:
                owners.add(f"{path.name}:{node.lineno}")
    assert assigned == {"gram.py"}
    assert defined == {"gram.py"}
    assert owners == set()
    for name, kernel in (("lattices.py", "_short_vectors"), ("kodaira.py", "_sorted_shells"), ("weyl.py", "_orthogonal_tuples")):
        tree = ast.parse((SRC / name).read_text())
        fn = next(node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == kernel)
        names = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(fn)}
        assert "_Levels" in names and names.isdisjoint({"_BLOCK", "searchsorted", "pop"}), kernel


def _is_zero_table(node) -> bool:
    """`[0] * n`, `[0 for ...]`, or a numpy zeros/zeros_like/full/full_like call."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return any(isinstance(side, ast.List) and [ast.unparse(e) for e in side.elts] == ["0"] for side in (node.left, node.right))
    if isinstance(node, ast.ListComp):
        return ast.unparse(node.elt) == "0"
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", getattr(node.func, "attr", None)) in ("zeros", "zeros_like", "full", "full_like")
    return False


def test_one_counting_kernel():
    # every coordinate-model count runs through `_coordinate_counts`.  A DP
    # allocates a fresh zero table inside its loop over coordinates, in a
    # list or in numpy; another function doing so would be a second kernel
    # to keep exact
    tree = ast.parse((SRC / "lattices.py").read_text())
    owners = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef):
            for loop in ast.walk(fn):
                if isinstance(loop, (ast.For, ast.While)) and any(map(_is_zero_table, ast.walk(loop))):
                    owners.add(fn.name)
    assert owners == {"_coordinate_counts"}


def test_counting_models_use_no_numpy():
    # the models count on Python integers, so a cold `repcount` or theta
    # cache miss loads no numpy; no int64/object switch can come back
    tree = ast.parse((SRC / "lattices.py").read_text())
    models = {"_coordinate_counts", "counts_sum_zero", "counts_even_sum", "_e7_table", "_model_counts", "_atom_counts"}
    found = [fn for fn in tree.body if isinstance(fn, ast.FunctionDef) and fn.name in models]
    assert {fn.name for fn in found} == models
    for fn in found:
        names = {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(fn)}
        names |= {alias.name for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        assert names.isdisjoint({"np", "numpy"}), fn.name


def test_counting_models_read_no_label():
    # the Gram matrix alone chooses a counting model: the model functions
    # name no label and no name parser, and inside the package only the
    # CLI's `_lattice` parses a lattice name
    tree = ast.parse((SRC / "lattices.py").read_text())
    for fn in tree.body:
        if isinstance(fn, ast.FunctionDef) and fn.name in ("_model_counts", "_atom_counts"):
            names = {getattr(node, "id", getattr(node, "attr", getattr(node, "arg", None))) for node in ast.walk(fn)}
            assert names.isdisjoint({"label", "standard_lattice"}), fn.name
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for node, fn in _in_functions(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "standard_lattice":
                callers.add(f"{path.stem}.{fn}")
    assert callers == {"cli._lattice"}


def test_one_p_adic_counting_route():
    # every p-adic count runs through the memo `_form_counts`; a second
    # caller of `_block_counts` would be a second route to keep in step
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(fn, ast.FunctionDef) and fn.name != "_block_counts":
                if "_block_counts" in {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(fn)}:
                    callers.add(f"{path.name}:{fn.name}")
    assert callers == {"siegel.py:_form_counts"}


def test_one_matrix_product():
    # every integer matrix product, and so every congruence u^T g u, runs
    # through `gram._mat_mul`; a second product loop would be a second
    # piece of exact linear algebra to keep right
    importers, users = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "operator" and any(alias.name == "mul" for alias in node.names):
                importers.add(path.name)
            if isinstance(node, ast.FunctionDef):
                if "mul" in {getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(node)}:
                    users.add(f"{path.name}:{node.name}")
    assert importers == {"gram.py"}
    assert users == {"gram.py:_mat_mul"}


def _module_level(node):
    """The nodes that run when the module is imported: all but function bodies."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from _module_level(child)


def test_numpy_is_imported_where_it_runs():
    # a module-level numpy import would cost every cold process that loads
    # the module about 0.1 s, also when its subcommand runs no numpy kernel
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        for node in _module_level(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "numpy" for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_density_oracle_names_no_closed_form():
    # the counting oracle certifies the closed-form densities, so no function
    # it reaches in siegel.py, or in the arith.py, gram.py and lattices.py
    # helpers siegel imports, may name one of them or the factorisation
    functions = {}
    for name in ("arith.py", "gram.py", "lattices.py", "siegel.py"):
        tree = ast.parse((SRC / name).read_text())
        functions.update({node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)})

    def names(fn):
        return {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(fn)} - {None}

    roots = ("local_density_oracle", "oracle_alpha", "_form_counts", "_block_counts", "_block_distribution", "_square_classes", "_class_constants")
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(n for n in names(functions[name]) if n in functions)
    closed = {"alpha3_A5", "alpha_regular", "_alpha2", "_CLOSED_ALPHAS", "alpha_closed", "local_factor", "_factor"}
    offenders = {fn: sorted(n for n in names(functions[fn]) if n in closed or n.startswith("alpha2_")) for fn in sorted(reached)}
    assert {fn: bad for fn, bad in offenders.items() if bad} == {}
    assert {"jordan_split", "_ord", "_check_prime_level", "_congruent", "_det_bareiss", "_mat_mul"} <= reached


def test_every_cache_is_bound_where_the_benchmark_resets_caches():
    # perfbench's reset_latq_caches empties the functools caches it finds
    # bound by name in these namespaces (its MODULES); a cache bound only
    # elsewhere would stay warm from one benchmark round into the next
    reset = [vars(importlib.import_module(f"latq.{name}")) for name in ("lattices", "qseries", "siegel", "polarisation", "kodaira", "weyl", "cli")]
    cached = {}
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("latq" if path.stem == "__init__" else f"latq.{path.stem}")
        for name, obj in vars(module).items():
            if callable(getattr(obj, "cache_clear", None)) and obj.__module__ == module.__name__:
                cached[f"{path.stem}.{name}"] = obj
    assert "gram._theta_e7_table" in cached and "lattices._model_counts" in cached
    assert sorted(key for key, fn in cached.items() if not any(ns.get(fn.__name__) is fn for ns in reset)) == []


def test_caches_decorate_module_level_functions():
    # perfbench's reset_latq_caches and the tests' cache_clear calls reach a
    # functools cache through the module namespace; a cache on a nested
    # function or a method, or one applied by a call, would outlive them
    # and carry results from one benchmark round into the next
    caches = ("cache", "lru_cache")
    offenders = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        names = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "functools" for alias in node.names if alias.name in caches}
        allowed = {id(node) for fn in tree.body if isinstance(fn, ast.FunctionDef) for dec in fn.decorator_list for node in ast.walk(dec)}
        for node in ast.walk(tree):
            named = isinstance(node, ast.Name) and node.id in names
            dotted = isinstance(node, ast.Attribute) and node.attr in caches and getattr(node.value, "id", None) == "functools"
            if (named or dotted) and id(node) not in allowed:
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
