import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_private_function_in_src_is_used_in_src():
    # a private helper that no code of the package names is dead code; a mention in a docstring or a
    # test does not count
    defined, used = {}, set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if node.name.startswith("_") and not node.name.endswith("__"):
                    defined[node.name] = f"{path.relative_to(SRC)}:{node.lineno}"
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    assert defined
    assert {name: where for name, where in defined.items() if name not in used} == {}


CACHES = {"cache", "lru_cache", "cached_property"}


def test_no_functools_cache_in_src_but_the_parsers():
    # bench/run.py runs every pass in one process through cli.main, so a cache that outlives a call would
    # show a gain that no ballspec process gets; the one allowed is the argparse parser's, on build_parser
    found, allowed = [], set()
    for path in sorted(SRC.rglob("*.py")):
        where = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(), str(path))
        names = {a.asname or a.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for a in node.names if a.name == "functools"}
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (where, node.name) == ("ballspec/cli.py", "build_parser"):
                allowed |= {id(sub) for decorator in node.decorator_list for sub in ast.walk(decorator)}
            elif isinstance(node, ast.ImportFrom) and node.module == "functools":
                found += [(node, f"{where}:{node.lineno} {a.name}") for a in node.names if a.name in CACHES]
            elif isinstance(node, ast.Attribute) and node.attr in CACHES:
                if isinstance(node.value, ast.Name) and node.value.id in names:
                    found.append((node, f"{where}:{node.lineno} {node.attr}"))
    assert any(id(node) in allowed for node, _ in found)  # the scan sees the parser's cache
    assert [where for node, where in found if id(node) not in allowed] == []
