"""Every module-level function and class of ``src/ovc``, and every method of
those classes, is reached by the program: its name appears in some file of
``src/ovc``, ``scripts`` or ``perfbench`` outside its own definition.  A
helper that only tests call fails here; either a command starts using it or
it goes.  Dunder methods are exempt, since Python calls them itself."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ovc"
SEARCHED = (SRC, ROOT / "scripts", ROOT / "perfbench")

# Reached only from tests, kept on purpose.
ALLOWED = {
    "check_integrability": "curvature check the module validation is to "
                           "call once a cheap enough form exists",
    "check_frobenius_compat": "Frobenius check the module validation is to "
                              "call when a frobenius matrix is given",
    "_fp_divmod": "independent division oracle of the Buchberger test",
}


def _span(node):
    """First line (decorators included) and last line of a def."""
    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
    return first, node.end_lineno


def _definitions():
    """(name, searched name, file, first line, last line) of every
    module-level def and of every method of a module-level class; a method
    is named ``Class.method``."""
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            yield (node.name, node.name, path) + _span(node)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not (
                            item.name.startswith("__")
                            and item.name.endswith("__")):
                        yield (f"{node.name}.{item.name}", item.name,
                               path) + _span(item)


def _unreached():
    texts = {path: path.read_text()
             for top in SEARCHED for path in sorted(top.rglob("*.py"))}
    out = []
    for name, searched, home, first, last in _definitions():
        pattern = re.compile(rf"\b{re.escape(searched)}\b")
        for path, text in texts.items():
            if path == home:
                lines = text.splitlines()
                text = "\n".join(lines[:first - 1] + lines[last:])
            if pattern.search(text):
                break
        else:
            out.append(f"{home.name}:{first} {name}")
    return out


def test_every_definition_is_reached_outside_tests():
    unreached = [u for u in _unreached() if u.split()[1] not in ALLOWED]
    assert unreached == []


def test_allowlist_names_live_definitions():
    names = {name for name, _, _, _, _ in _definitions()}
    assert set(ALLOWED) <= names
