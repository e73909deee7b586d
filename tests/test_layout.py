"""The test suite's layout: every frozen copy lives in ``frozen.py``, and
each module-level helper is defined in one module only and imported under
its own name, so no name means two things (``support.py`` holds the helpers
several modules share).  In src, work crosses a fork in one function only."""

import ast
from collections import defaultdict
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "sympllt"


def parsed_modules():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(TESTS.glob("*.py"))}


def test_frozen_copies_are_defined_only_in_frozen_py():
    strays = [f"{name}:{node.lineno} {node.name}"
              for name, tree in parsed_modules().items() if name != "frozen.py"
              for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name.lower().startswith("frozen")]
    assert strays == []


def test_no_helper_is_defined_in_two_modules():
    homes = defaultdict(list)
    for name, tree in parsed_modules().items():
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("test_")):
                homes[node.name].append(name)
    assert {helper: names for helper, names in homes.items() if len(names) > 1} == {}


def test_no_shared_helper_is_imported_under_another_name():
    renamed = [f"{name}: {alias.name} as {alias.asname}"
               for name, tree in parsed_modules().items() for node in tree.body
               if isinstance(node, ast.ImportFrom) and node.module in ("frozen", "support")
               for alias in node.names if alias.asname]
    assert renamed == []


def test_src_forks_in_one_function_and_imports_no_process_pool():
    imports, forks, functions = [], [], {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imports += [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                imports += [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and node.attr == "fork":
                forks.append((path.stem, node.lineno))
            elif isinstance(node, ast.FunctionDef):
                # walked outside in, so each line ends up named by its innermost function
                functions.update({(path.stem, line): f"{path.stem}.{node.name}"
                                  for line in range(node.lineno, node.end_lineno + 1)})
    assert [name for name in imports
            if name.split(".")[0] in ("multiprocessing", "concurrent") or name == "fork"] == []
    assert [functions.get(fork) for fork in forks] == ["workers._forked"]
