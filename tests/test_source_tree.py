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
