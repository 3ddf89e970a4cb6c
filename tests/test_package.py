"""The package surface: what ``homoment`` exports and what it imports."""

import argparse
import ast
import re
import sys
from pathlib import Path

import homoment
from homoment import cli

SOURCE = Path(homoment.__file__).resolve().parent
README = Path(__file__).resolve().parent.parent / "README.md"


def test_exports_resolve_and_imports_stay_numpy_only():
    # pyproject.toml lists numpy as the one dependency, so no module may
    # import another third-party package (scipy and sympy are test-only)
    missing = [name for name in homoment.__all__
               if not hasattr(homoment, name)]
    assert not missing, f"homoment.__all__ names missing attributes {missing}"
    allowed = {"numpy", "homoment"} | set(sys.stdlib_module_names)
    modules = sorted(SOURCE.glob("*.py"))
    assert modules
    foreign = []
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in allowed]
    assert not foreign, f"imports outside numpy and the stdlib: {foreign}"


def test_no_private_name_crosses_between_estimate_and_ranktest():
    # ranktest holds the univariate pipeline and estimate the recovery
    # that calls it: neither reads a private name of the other, by an
    # import or as an attribute of the module
    crossing = []
    for name, other in (("estimate", "ranktest"), ("ranktest", "estimate")):
        tree = ast.parse((SOURCE / f"{name}.py").read_text(encoding="utf-8"))
        targets = (other, f"homoment.{other}")
        bound = {f"homoment.{other}"}  # the names of the other module here
        read = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module in targets:
                read += [alias.name for alias in node.names]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                bound |= {alias.asname or alias.name for alias in node.names
                          if alias.name in targets}
        read += [node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and ast.unparse(node.value) in bound]
        crossing += [f"{name} reads {other}.{attr}" for attr in read
                     if attr.startswith("_")]
    assert not crossing, f"private names read across modules: {crossing}"


def test_parametrised_ids_name_their_values(request):
    # pytest names a value it cannot print by its argument and position
    # ("value27"), so deleting one case renamed every case after it
    positional = []
    for item in request.session.items:
        spec = getattr(item, "callspec", None)
        if spec is None:
            continue
        counter = "(?:" + "|".join(map(re.escape, spec.params)) + r")\d+"
        if any(re.fullmatch(counter, part) for part in spec.id.split("-")):
            positional.append(item.nodeid)
    assert not positional, f"ids named by position, not value: {positional}"


def test_cli_arguments_parse_numbers_only():
    # a bound on a value is stated once, by the library function that
    # takes it: an argparse type that refused values would state it a
    # second time, under another code
    parsers = [("homoment", cli.build_parser())]
    typed = []
    while parsers:
        name, parser = parsers.pop()
        for action in parser._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers += [(f"{name} {command}", sub)
                            for command, sub in action.choices.items()]
            elif (action.type not in (None, int, float)
                  or action.type is not None and action.choices):
                typed.append(f"{name} {'/'.join(action.option_strings)}")
    assert not typed, ("arguments typed other than int or float, or "
                       f"numbers limited to choices: {typed}")


def test_readme_examples_run():
    # the python blocks of README.md, in order, in one namespace, so the
    # library example cannot drift from the API
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(
        encoding="utf-8"), re.DOTALL | re.MULTILINE)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["est"].params.weights[0] < 0.5
