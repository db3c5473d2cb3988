"""Checks on the package source itself."""

import ast
import builtins
import importlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "anticyclo"

#: Traced names in BENCHMARK.json whose functions were deleted before the
#: benchmark was last changed; mending the benchmark empties this set.
STRANDED_TRACED_NAMES = {
    "snf.int_det",
    "snf.smith_normal_form",
    "snf.lattice_basis",
    "snf.quotient_invariants",
    "iwasawa.validate_gamma_model",
    "iwasawa.layer_size_exponent",
    "padic.binom",
}


def test_no_assert_statements_in_the_package():
    # ``python -O`` strips assert statements, so no check may rely on one.
    paths = sorted(SRC.glob("*.py"))
    assert paths, "package source not found"
    found = []
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_package_imports_only_the_standard_library():
    # The package computes with plain Python integers; sympy and the other
    # test tools are oracles for the tests only.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue  # relative imports stay inside the package
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names | {"anticyclo"}
            ]
    assert found == []


def test_every_imported_name_is_used():
    # Deleting a helper tends to leave its import behind; ``__init__.py``
    # imports to re-export, so it is exempt.
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.asname or alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                names = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names if name not in used]
    assert found == []


def test_every_private_definition_is_used():
    # A private function, class or method that nothing in the package
    # refers to is a leftover of a deleted code path; dunder methods are
    # called by Python itself and are exempt.
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    refs = [
        (name, node.id if isinstance(node, ast.Name) else node.attr, node.lineno)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    ]
    defs = [
        (name, node)
        for name, tree in trees.items()
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not (node.name.startswith("__") and node.name.endswith("__"))
    ]
    assert len(defs) > 30, "private definitions not found"
    found = [
        f"{name}:{node.lineno} {node.name}"
        for name, node in defs
        if not any(
            ident == node.name and (where != name or not node.lineno <= line <= node.end_lineno)
            for where, ident, line in refs
        )
    ]
    assert found == []


def test_no_private_name_crosses_a_module():
    # A module reaches another only through its public names, which are
    # the seams the benchmark's tracer wraps; dunders are exempt.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno} {alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.endswith("__")
        ]
    assert found == []


def test_every_parameter_is_read():
    # A parameter the body never reads is a knob that does nothing, often
    # left behind when the code that used it was deleted; ``self`` and
    # ``cls`` are exempt.
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]
            read = {
                n.id
                for stmt in node.body
                for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            }
            found += [
                f"{path.name}:{node.lineno} {arg.arg}"
                for arg in params
                if arg.arg not in read | {"self", "cls"}
            ]
    assert found == []


def test_the_odd_prime_check_lives_in_padic():
    # "p is an odd prime" is checked by ``padic.require_odd_prime``; every
    # other module calls that, never ``is_odd_prime`` itself.
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "padic.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "is_odd_prime"
        ]
    assert found == []


def test_binomial_coefficients_live_in_poly():
    # The coefficients of (1 + T)^e come from ``poly.binomial_row``; no
    # other module names ``comb`` or ``factorial`` to compute its own.
    found = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "poly.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and node.id in {"comb", "factorial"})
            or (isinstance(node, ast.Attribute) and node.attr in {"comb", "factorial"})
            or (isinstance(node, ast.alias) and node.name in {"comb", "factorial"})
        ]
    assert found == []


def test_kronecker_packing_lives_in_one_helper():
    # Rows are packed into integers of w-bit digits by ``cohomology._pack``
    # alone; no other function of ``cohomology`` names ``lshift`` to pack
    # its own.
    tree = ast.parse((SRC / "cohomology.py").read_text(encoding="utf-8"))
    packers = [
        function.name
        for function in ast.walk(tree)
        if isinstance(function, ast.FunctionDef)
        and any(isinstance(node, ast.Name) and node.id == "lshift" for node in ast.walk(function))
    ]
    assert packers == ["_pack"]


def test_no_except_tuple_names_a_class_beside_its_base():
    # ``except (A, B)`` with B a base of A catches exactly what ``except B``
    # does; naming A as well reads as a case that B does not cover.
    found = []
    tuples = 0
    for path in sorted(SRC.glob("*.py")):
        module = importlib.import_module("anticyclo" if path.stem == "__init__" else f"anticyclo.{path.stem}")
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if not (isinstance(node, ast.ExceptHandler) and isinstance(node.type, ast.Tuple)):
                continue
            tuples += 1
            names = [ast.unparse(elt) for elt in node.type.elts]
            classes = [eval(name, vars(builtins) | vars(module)) for name in names]
            found += [
                f"{path.name}:{node.lineno} {name} beside {base_name}"
                for name, cls in zip(names, classes)
                for base_name, base in zip(names, classes)
                if base is not cls and issubclass(cls, base)
            ]
    assert tuples, "no except tuple found in the package source"
    assert found == []


def test_all_lists_exactly_what_the_package_imports():
    # A name deleted from one of the two lists but left in the other is a
    # stale export or a silent re-export.
    import anticyclo

    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    ]
    assert imported, "no re-exports found in __init__.py"
    assert len(anticyclo.__all__) == len(set(anticyclo.__all__))
    assert sorted(anticyclo.__all__) == sorted(imported)


def _literal_assignment(path: Path, name: str):
    """The literal value assigned to ``name`` at the top of ``path``, read
    with ``ast`` so that the file is neither imported nor run."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    values = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == name for target in node.targets)
    ]
    assert len(values) == 1, f"{name} not found once in {path.name}"
    return values[0]


def test_every_traced_benchmark_name_resolves():
    # A per-layer metric ``layer.func.metric`` reads the tracer's span of
    # ``anticyclo.<layer>.func`` (a ``MetacyclicGroup`` method for
    # ``metacyclic``); a deleted or renamed function would read 0 there,
    # so only the names already known to be stranded may fail.  Three
    # tables name them: BENCHMARK.json's ``per_layer``, the bench script's
    # ``PER_LAYER``, which must list the same names, and the names its
    # tests expect each workload to exercise.
    from anticyclo.metacyclic import MetacyclicGroup

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = [metric["name"] for metric in benchmark["per_layer"]]
    per_layer = [name for name, _, _ in _literal_assignment(ROOT / "perfbench" / "run.py", "PER_LAYER")]
    assert per_layer == declared
    exercised = _literal_assignment(ROOT / "perfbench" / "test_perfbench.py", "EXERCISED")
    assert set(exercised) == {workload["name"] for workload in benchmark["workloads"]}
    names = declared + [name for names in exercised.values() for name in names]
    traced = {tuple(parts[:2]) for name in names if len(parts := name.split(".")) == 3}
    assert len(traced) > 20, "no traced names found"
    unresolved = {
        f"{layer}.{func}"
        for layer, func in traced
        if not hasattr(MetacyclicGroup if layer == "metacyclic" else importlib.import_module(f"anticyclo.{layer}"), func)
    }
    assert unresolved == STRANDED_TRACED_NAMES
