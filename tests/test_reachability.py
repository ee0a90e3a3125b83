"""Every module-level function and class of ``src/ovc``, and every method of
those classes, is reached by the program: its name appears in the code of
some file of ``src/ovc``, ``scripts`` or ``perfbench`` outside its own
definition.  Code means a NAME token, or a string literal that is a bare
identifier (a by-name reference, as ``getattr`` takes); a mention in a
docstring or a comment does not count.  A helper that only tests call fails
here; either a command starts using it or it goes.  Dunder methods are
exempt, since Python calls them itself.

The same holds one level down: every optional parameter is passed by some
call, no parameter gets the same literal from every call, every parameter is
read by its function, and every field of a record class (a dataclass, a
``NamedTuple`` class or a plain class with slots or ``__init__`` attributes)
is read as an attribute, so a value nothing sets or reads does not stay.
Every name a module of ``src/ovc``, ``tests`` or ``scripts`` imports is used
in that module."""

import ast
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "ovc"
SEARCHED = (SRC, ROOT / "scripts", ROOT / "perfbench")

# Reached only from tests, kept on purpose.
ALLOWED: dict[str, str] = {}


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


_BARE_STRING = re.compile(r"""[rRuU]?(['"])(\w+)\1""")


def _names(path):
    """{name: lines} of the names the code of a file uses."""
    out: dict[str, list[int]] = {}
    with tokenize.open(path) as f:
        for tok in tokenize.generate_tokens(f.readline):
            name = None
            if tok.type == tokenize.NAME:
                name = tok.string
            elif tok.type == tokenize.STRING:
                bare = _BARE_STRING.fullmatch(tok.string)
                name = bare and bare.group(2)
            if name:
                out.setdefault(name, []).append(tok.start[0])
    return out


def _unreached():
    names = {path: _names(path)
             for top in SEARCHED for path in sorted(top.rglob("*.py"))}
    out = []
    for name, searched, home, first, last in _definitions():
        if not any(any(path != home or not first <= line <= last
                       for line in used.get(searched, ()))
                   for path, used in names.items()):
            out.append(f"{home.name}:{first} {name}")
    return out


def test_every_definition_is_reached_outside_tests():
    unreached = [u for u in _unreached() if u.split()[1] not in ALLOWED]
    assert unreached == []


def test_allowlist_names_live_definitions():
    names = {name for name, _, _, _, _ in _definitions()}
    assert set(ALLOWED) <= names


def test_names_come_from_code_not_prose(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text('"""Calls helper_a."""\n'
                    '# helper_b is called below\n'
                    'x = helper_c(getattr(y, "helper_d"), "helper_e here")\n')
    names = _names(path)
    assert {"helper_c", "helper_d"} <= set(names)
    assert not {"helper_a", "helper_b", "helper_e"} & set(names)


# -- parameters and fields ----------------------------------------------------
# The definitions are those of ``src/ovc``, nested defs included, and the
# callers and readers are the code of ``SEARCHED``.  Calls are matched by
# name: a call to ``f`` or ``x.f`` counts for every def named ``f``, and a
# call to a class, or to one of its subclasses, for its ``__init__``.  A def
# does not count as its own caller.  Name collisions can only hide a
# finding, so each guard is a lower bound, with one exception: the field
# guard takes ``replace`` on an object of no clear class for a copy of the
# read's own class (``_field_reads``), so it may flag a field that is read.

# Optional parameters that no call passes, kept on purpose.
UNPASSED_ALLOWED: dict[str, str] = {}

# Parameters that every call passes the same literal to, kept on purpose.
CONSTANT_ALLOWED = {
    "rho_leading_term(D)": "the stabilization tests of test_groebner.py and "
                           "test_series.py compare stabilization_decay with "
                           "it at D >= D0",
    "bounddenom(verify)": "criterion 6 and the problems-batch workload both "
                          "pass True; the workload passes it by keyword "
                          "beside *args, and the benchmark's files change "
                          "only with the benchmark",
}

# Parameters that their function never reads, kept on purpose.
UNREAD_ALLOWED = {
    "ChainSpace.__setattr__(value)": "a frozen record refuses every value "
                                     "Python passes it",
}

# Record fields read only by tests, kept on purpose.
UNREAD_FIELDS_ALLOWED = {
    "ComplexData.floors": "precision floor of a vanished entry, for the "
                          "floor-limited certification of ROADMAP item 2",
    "NormResult.uncertain": "the flag that a norm rests on a limited zero",
    "ParseError.line": "the line tests check; the message carries it too",
    "_RingFields.decay": "checked on construction and compared with the "
                         "ring; nothing reads the fringe decay yet (ROADMAP "
                         "item 7)",
}


# Field names that several classes share.  The field guard matches attribute
# names where the receiver's class is not clear, so such a read of one
# class's field counts for every class with a field of that name and can
# hide an unread one; a reviewer checks a new shared name before it joins
# this list.
SHARED_FIELDS = {"M", "N", "command", "descriptor", "detail", "generators",
                 "kind", "matrices", "module", "p", "passed", "prime", "q",
                 "rank", "rows", "slope"}


def _trees(paths):
    return {path: ast.parse(path.read_text(), str(path)) for path in paths}


def _code_paths():
    return sorted(path for top in SEARCHED for path in top.rglob("*.py"))


def _defs(tree):
    """(qualified name, def, parameters a call binds first) for every def
    of a tree: a method's first parameter is bound by the call, unless it
    is a staticmethod."""
    def walk(node, prefix, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                bound = 1 if in_class and not static else 0
                yield prefix + child.name, child, bound
                yield from walk(child, f"{prefix}{child.name}.", False)
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.", True)
            else:
                yield from walk(child, prefix, in_class)
    yield from walk(tree, "", False)


def _name(node):
    """The name ``f`` of an expression ``f`` or ``x.f``, else None."""
    return node.id if isinstance(node, ast.Name) else \
        node.attr if isinstance(node, ast.Attribute) else None


def _subclasses(trees):
    """{class name: names of it and of every class derived from it}."""
    bases = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = {_name(b) for b in node.bases}
    out = {}
    for name in bases:
        family, grew = {name}, True
        while grew:
            more = {c for c, bs in bases.items() if bs & family} - family
            family |= more
            grew = bool(more)
        out[name] = family
    return out


def _field_param(item):
    """(is a parameter of the generated ``__init__``, its default or None)
    for a dataclass field."""
    v = item.value
    if isinstance(v, ast.Call) and _name(v.func) == "field":
        kw = {k.arg: k.value for k in v.keywords}
        init = kw.get("init")
        return not (isinstance(init, ast.Constant) and init.value is False), \
            kw.get("default", kw.get("default_factory"))
    return True, v


def _constructs(node):
    """Whether a class writes its own ``__init__`` or ``__new__``."""
    return any(isinstance(item, ast.FunctionDef)
               and item.name in ("__init__", "__new__") for item in node.body)


def _signatures(tree, family):
    """(qualified name, names a call goes by, lines of its own body,
    parameters as (name, position or None for keyword-only, line, default
    or None)) of every def of a tree and of the ``__init__`` each dataclass
    or ``NamedTuple`` class without a written ``__init__`` or ``__new__``
    generates: its fields are its parameters in order, those with a default
    optional.  A call of a class goes by a written ``__init__`` or
    ``__new__`` of it or of a base, and by the generated one of it or of a
    base unless the class writes its own."""
    written = {node.name for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef) and _constructs(node)}
    for qual, fn, bound in _defs(tree):
        names = {fn.name}
        if fn.name in ("__init__", "__new__") and "." in qual:
            names |= family.get(qual.split(".")[-2], set())
        a = fn.args
        positional = a.posonlyargs + a.args
        defaults = [None] * (len(positional) - len(a.defaults)) + a.defaults
        params = [(arg.arg, k - bound, fn.lineno, d) for k, (arg, d)
                  in enumerate(zip(positional, defaults)) if k >= bound]
        params += [(arg.arg, None, fn.lineno, d)
                   for arg, d in zip(a.kwonlyargs, a.kw_defaults)]
        yield qual, names, (fn.lineno, fn.end_lineno), params
    for node in ast.walk(tree):
        if not (isinstance(node, ast.ClassDef) and _is_annotated(node)) \
                or node.name in written:
            continue
        fields = [(item.target.id, item.lineno, *_field_param(item))
                  for item in node.body if isinstance(item, ast.AnnAssign)
                  and isinstance(item.target, ast.Name)]
        params = [(name, line, default)
                  for name, line, init, default in fields if init]
        names = {node.name} | (family.get(node.name, set()) - written)
        yield (f"{node.name}.__init__", names, (0, -1),
               [(name, k, line, default) for k, (name, line, default)
                in enumerate(params)])


def _parameter_calls(def_paths, code_paths):
    """(finding, name, position or None, default or None, calls) for every
    parameter of ``def_paths``, with the calls that may bind it."""
    defs = _trees(def_paths)
    calls = [(path, node) for path, tree in _trees(code_paths).items()
             for node in ast.walk(tree) if isinstance(node, ast.Call)]
    family = _subclasses(defs)
    for path, tree in defs.items():
        for qual, names, (first, last), params in _signatures(tree, family):
            mine = [c for p, c in calls if _name(c.func) in names and not (
                p == path and first <= c.lineno <= last)]
            for name, pos, line, default in params:
                yield (f"{path.name}:{line} {qual}({name})", name, pos,
                       default, mine)


def _unpassed(def_paths, code_paths):
    """Optional parameters that no call passes, by keyword, by position or
    through * or ** unpacking; a defaulted dataclass field counts as an
    optional parameter of its class call."""
    return [finding for finding, name, pos, default, mine
            in _parameter_calls(def_paths, code_paths)
            if default is not None and not any(
                any(k.arg in (name, None) for k in c.keywords)
                or pos is not None and (
                    len(c.args) > pos or any(
                        isinstance(x, ast.Starred) for x in c.args))
                for c in mine)]


def _passed(call, name, pos, default):
    """The expression a call passes to a parameter, its default when the
    call omits it, or None when * or ** unpacking hides it.  A keyword
    names its parameter even beside unpacking."""
    for k in call.keywords:
        if k.arg == name:
            return k.value
    if any(k.arg is None for k in call.keywords) or any(
            isinstance(x, ast.Starred) for x in call.args):
        return None
    return call.args[pos] if pos is not None and len(call.args) > pos \
        else default


def _constant(def_paths, code_paths):
    """Parameters that every call passes the same literal to: a constant,
    None, True or False, an omitted argument counting as its default."""
    out = []
    for finding, name, pos, default, mine in _parameter_calls(def_paths,
                                                              code_paths):
        passed = {ast.dump(x) if isinstance(x, ast.Constant) else None
                  for x in (_passed(c, name, pos, default) for c in mine)}
        if len(passed) == 1 and None not in passed:
            out.append(finding)
    return out


def _unread(def_paths):
    """Parameters that their function's body never loads; a method's bound
    first parameter is exempt."""
    out = []
    for path, tree in _trees(def_paths).items():
        for qual, fn, bound in _defs(tree):
            a = fn.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [
                x for x in (a.vararg, a.kwarg) if x]
            loaded = {n.id for stmt in fn.body for n in ast.walk(stmt)
                      if isinstance(n, ast.Name)
                      and isinstance(n.ctx, ast.Load)}
            for arg in params[bound:]:
                if arg.arg not in loaded:
                    out.append(f"{path.name}:{fn.lineno} {qual}({arg.arg})")
    return out


def _is_dataclass(node):
    return any(_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in node.decorator_list)


def _is_annotated(node):
    """A dataclass or a ``NamedTuple`` class: its annotated names are its
    fields."""
    return _is_dataclass(node) or any(_name(b) == "NamedTuple"
                                      for b in node.bases)


def _set_on(node, me):
    """The attribute an AST node sets on the name ``me``: an assignment to
    ``me.attr``, or ``object.__setattr__(me, "attr", ...)``; else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store) \
            and isinstance(node.value, ast.Name) and node.value.id == me:
        return node.attr
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr == "__setattr__" \
            and _name(node.func.value) == "object" and len(node.args) > 1 \
            and isinstance(node.args[0], ast.Name) and node.args[0].id == me \
            and isinstance(node.args[1], ast.Constant):
        return node.args[1].value
    return None


def _plain_fields(node):
    """(field, line) of the names a plain class lists in ``__slots__`` and
    of those its ``__init__`` sets on its first parameter (``_set_on``)."""
    for item in node.body:
        if isinstance(item, ast.Assign) and any(
                _name(t) == "__slots__" for t in item.targets):
            v = item.value
            for x in v.elts if isinstance(v, (ast.Tuple, ast.List)) else [v]:
                if isinstance(x, ast.Constant) and isinstance(x.value, str) \
                        and not x.value.startswith("__"):
                    yield x.value, x.lineno
        elif isinstance(item, ast.FunctionDef) and item.name == "__init__" \
                and item.args.args:
            me = item.args.args[0].arg
            for n in ast.walk(item):
                attr = _set_on(n, me)
                if attr:
                    yield attr, n.lineno


def _fields(tree):
    """(class name, field, line) of every field of a record class: the
    annotated names of a dataclass or of a ``NamedTuple`` class, the slots
    and ``__init__`` attributes of any other class (``_plain_fields``).  A
    class derived from a record class holds its base's fields too; they
    are listed once, on the base, and ``_field_reads`` counts a read
    through the derived class for the base."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        if _is_annotated(node):
            found = [(item.target.id, item.lineno) for item in node.body
                     if isinstance(item, ast.AnnAssign)
                     and isinstance(item.target, ast.Name)]
        else:
            found = sorted(_plain_fields(node), key=lambda f: f[1])
        seen = set()
        for name, line in found:
            if name not in seen:
                seen.add(name)
                yield node.name, name, line


def _read(node):
    """(receiver, field) of an attribute load or of ``getattr`` with a
    literal name, else None."""
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.value, node.attr
    if isinstance(node, ast.Call) and _name(node.func) == "getattr" \
            and len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
        return node.args[0], node.args[1].value
    return None


def _scope(fn, clear, cls, family):
    """The receivers whose class is clear inside a def, as {name: class}:
    ``self`` (the bound first parameter of a method of ``cls``) and the
    parameters annotated with a class of ``family``.  A name the def binds
    anywhere else is not clear."""
    a = fn.args
    params = a.posonlyargs + a.args + a.kwonlyargs + [
        x for x in (a.vararg, a.kwarg) if x]
    stored = {n.id for n in ast.walk(fn)
              if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    out = {k: v for k, v in clear.items()
           if k not in stored and k not in {x.arg for x in params}}
    static = isinstance(fn, ast.Lambda) or any(
        _name(d) in ("staticmethod", "classmethod") for d in fn.decorator_list)
    for k, arg in enumerate(params):
        if k == 0 and cls and not static:
            owner = cls
        else:
            ann = arg.annotation
            owner = ann.id if isinstance(ann, ast.Name) else \
                ann.value if isinstance(ann, ast.Constant) else None
        if owner in family and arg.arg not in stored:
            out[arg.arg] = owner
    return out


def _field_reads(tree, owners, family, positions):
    """(class, field) of every read of a tree that counts.  A read counts
    for the classes its receiver may have: those of ``_scope`` when its
    class is clear, with their bases and derived classes, else every class
    with a field of that name.  It does not count for class C when it lies
    inside the argument that a call of C or of a class derived from C, of
    ``C.make``, or of ``replace`` or ``_replace`` on a C passes to the
    field of its name, by keyword or by position in the signature
    ``_signatures`` gives; ``replace`` on an object whose class is not
    clear counts as replace on each class with that field."""
    bases = {c: {b for b, kin in family.items() if c in kin} for c in family}

    def classes(receiver, clear, field):
        if isinstance(receiver, ast.Name) and receiver.id in clear:
            kin = clear[receiver.id]
            return {c for c in family[kin] | bases[kin]
                    if c in owners.get(field, ())}
        return owners.get(field, set())

    def into(call, clear):
        """{id of an argument or keyword: (field, classes)} of the fields
        a creating call fills."""
        f, made, copied = call.func, None, None
        if _name(f) in family:
            made = _name(f)
            order = positions.get(f"{made}.__init__") \
                or positions.get(f"{made}.__new__", [])
        elif isinstance(f, ast.Attribute) and f.attr == "make" \
                and _name(f.value) in family:
            made = _name(f.value)
            order = positions.get(f"{made}.make", [])
        elif _name(f) == "replace" and call.args:
            order, copied = [], call.args[0]
        elif isinstance(f, ast.Attribute) and f.attr == "_replace":
            order, copied = [], f.value
        else:
            return {}
        out = {}
        for k in call.keywords:
            if k.arg:
                out[id(k)] = k.arg, bases[made] if made else classes(
                    copied, clear, k.arg)
        for x, name in zip(call.args, order):
            if isinstance(x, ast.Starred):
                break
            out[id(x)] = name, bases[made]
        return out

    found = set()

    def visit(node, clear, cls, filled):
        hit = _read(node)
        if hit:
            receiver, field = hit
            found.update((c, field) for c in classes(receiver, clear, field)
                         - filled.get(field, set()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            clear = _scope(node, clear, cls, family)
        args = into(node, clear) if isinstance(node, ast.Call) else {}
        inner = node.name if isinstance(node, ast.ClassDef) else None
        for child in ast.iter_child_nodes(node):
            sub = filled
            if id(child) in args:
                field, made = args[id(child)]
                sub = {**filled, field: filled.get(field, set()) | made}
            visit(child, clear, inner, sub)

    visit(tree, {}, None, {})
    return found


def _unread_fields(def_paths, code_paths):
    """Record fields that no code reads as an attribute, directly or by
    ``getattr`` with a literal name, by the rules of ``_field_reads``."""
    defs = _trees(def_paths)
    owners: dict[str, set] = {}
    for tree in defs.values():
        for cls, name, _ in _fields(tree):
            owners.setdefault(name, set()).add(cls)
    family = _subclasses(defs)
    positions = {}
    for tree in defs.values():
        for qual, _, _, params in _signatures(tree, family):
            positions[qual] = [name for name, pos, _, _ in params
                               if pos is not None]
    read = set()
    for tree in _trees(code_paths).values():
        read |= _field_reads(tree, owners, family, positions)
    return [f"{path.name}:{line} {cls}.{name}"
            for path, tree in defs.items()
            for cls, name, line in _fields(tree) if (cls, name) not in read]


def _shared_fields(paths):
    """Field names that more than one class of ``_fields`` defines."""
    owners: dict[str, set] = {}
    for path, tree in _trees(paths).items():
        for cls, name, _ in _fields(tree):
            owners.setdefault(name, set()).add((path, cls))
    return {name for name, classes in owners.items() if len(classes) > 1}


def _allowed(found, allowed):
    return [f for f in found if f.split()[1] not in allowed]


def test_every_optional_parameter_is_passed():
    assert _allowed(_unpassed(sorted(SRC.glob("*.py")), _code_paths()),
                    UNPASSED_ALLOWED) == []


def test_no_parameter_gets_one_literal_from_every_call():
    assert _allowed(_constant(sorted(SRC.glob("*.py")), _code_paths()),
                    CONSTANT_ALLOWED) == []


def test_every_parameter_is_read():
    assert _allowed(_unread(sorted(SRC.glob("*.py"))), UNREAD_ALLOWED) == []


def test_every_dataclass_field_is_read():
    assert _allowed(_unread_fields(sorted(SRC.glob("*.py")), _code_paths()),
                    UNREAD_FIELDS_ALLOWED) == []


def test_shared_field_names_are_listed():
    assert _shared_fields(sorted(SRC.glob("*.py"))) == SHARED_FIELDS


def test_parameter_and_field_allowlists_name_live_items():
    trees = _trees(sorted(SRC.glob("*.py"))).values()
    params = {f"{qual}({name})" for tree in trees
              for qual, _, _, sig in _signatures(tree, {})
              for name, _, _, _ in sig}
    fields = {f"{cls}.{name}" for tree in trees
              for cls, name, _ in _fields(tree)}
    assert set(UNPASSED_ALLOWED) | set(CONSTANT_ALLOWED) \
        | set(UNREAD_ALLOWED) <= params
    assert set(UNREAD_FIELDS_ALLOWED) <= fields


def _unused_imports(paths):
    """Names a module imports, at any depth, and never loads; a ``from
    __future__`` import is exempt."""
    out = []
    for path, tree in _trees(paths).items():
        loaded = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
                  and isinstance(n.ctx, ast.Load)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or isinstance(
                    node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in loaded:
                        out.append(f"{path.name}:{node.lineno} {name}")
    return out


def test_every_import_is_used():
    assert _unused_imports(sorted(SRC.glob("*.py"))
                           + sorted((ROOT / "tests").glob("*.py"))
                           + sorted((ROOT / "scripts").glob("*.py"))) == []


def test_import_guard_sees_each_form(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from __future__ import annotations\n"
                    "import copy\n"
                    "import os.path\n"
                    "from dataclasses import dataclass, field\n"
                    "from fractions import Fraction as F\n"
                    "from .padics import PadicApprox as Approx\n"
                    "def f(x: F) -> None:\n"
                    "    import json\n"
                    "    Approx = 0\n"
                    "    return os.path.join(x)\n"
                    "@dataclass\n"
                    "class Box: pass\n")
    assert _unused_imports([path]) == [
        "sample.py:2 copy", "sample.py:4 field", "sample.py:6 Approx",
        "sample.py:8 json"]


def test_parameter_guards_see_each_way_of_passing(tmp_path):
    defs = tmp_path / "defs.py"
    defs.write_text(
        "def by_position(x, y=1): return x + y\n"
        "def by_keyword(x, y=1): return x + y\n"
        "def by_star(x, y=1): return x + y\n"
        "def by_stars(x, *, y=1): return x + y\n"
        "def never(x, y=1): return x + y\n"
        "def itself(x, y=1): return itself(x, y)\n"
        "def spare(x, unused): return x\n"
        "def outer(a):\n"
        "    def inner(): return a\n"
        "    return inner\n"
        "class Base:\n"
        "    def __init__(self, a=0): self.a = a\n"
        "    def method(self, x, y=0): return x + y\n"
        "class Child(Base): pass\n"
        "class Other:\n"
        "    def __init__(self, b=0): self.b = 0\n")
    calls = tmp_path / "calls.py"
    calls.write_text(
        "by_position(1, 2); by_keyword(1, y=2); by_star(*args)\n"
        "by_stars(1, **opts); never(1); itself(1)\n"
        "Child(a=1); Other(); obj.method(1)\n")
    assert _unpassed([defs], [defs, calls]) == [
        "defs.py:5 never(y)", "defs.py:6 itself(y)",
        "defs.py:13 Base.method(y)", "defs.py:16 Other.__init__(b)"]
    assert _unread([defs]) == [
        "defs.py:7 spare(unused)", "defs.py:16 Other.__init__(b)"]


def test_constant_guard_needs_one_literal_from_every_call(tmp_path):
    defs = tmp_path / "defs.py"
    defs.write_text(
        "from dataclasses import dataclass\n"
        "def same(a, b, c=None, *, d=True): return a\n"
        "def varied(a, b=0): return a\n"
        "def unpacked(a, b=0): return a\n"
        "def mixed(a): return a\n"
        "def built(a=()): return a\n"
        "def uncalled(a=0): return a\n"
        "def keyed(a, b=False): return a\n"
        "@dataclass\n"
        "class Box:\n"
        "    size: int = 3\n"
        "    kind: str = 'x'\n")
    calls = tmp_path / "calls.py"
    calls.write_text(
        "same(1, 2); same(1, b=2, c=None); same(1, 2, d=True)\n"
        "varied(1); varied(2, b=1); unpacked(1); unpacked(*args)\n"
        "mixed(1); mixed(True); built()\n"
        "keyed(*args, b=True); keyed(1, **opts, b=True)\n"
        "Box(); Box(size=3, kind='y')\n")
    assert _constant([defs], [defs, calls]) == [
        "defs.py:2 same(a)", "defs.py:2 same(b)", "defs.py:2 same(c)",
        "defs.py:2 same(d)", "defs.py:8 keyed(b)",
        "defs.py:11 Box.__init__(size)"]


def test_parameter_guard_sees_dataclass_fields(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from dataclasses import dataclass, field\n"
                    "@dataclass\n"
                    "class Box:\n"
                    "    a: int\n"
                    "    by_position: int = 0\n"
                    "    cache: object = field(default=None, init=False)\n"
                    "    by_keyword: int = 0\n"
                    "    never: int = 0\n"
                    "    factory: dict = field(default_factory=dict)\n"
                    "@dataclass\n"
                    "class Written:\n"
                    "    b: int = 0\n"
                    "    def __init__(self): self.b = 1\n"
                    "class Sub(Box): pass\n"
                    "Box(1, 2, by_keyword=3); Sub(1, never=4); Written()\n")
    assert _unpassed([path], [path]) == ["sample.py:9 Box.__init__(factory)"]
    path.write_text(path.read_text().replace("Sub(1, never=4)", "Sub(1)"))
    assert _unpassed([path], [path]) == [
        "sample.py:8 Box.__init__(never)", "sample.py:9 Box.__init__(factory)"]


def test_field_guard_counts_only_reads(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from dataclasses import dataclass\n"
                    "@dataclass(frozen=True)\n"
                    "class Box:\n"
                    "    read: int\n"
                    "    by_name: int\n"
                    "    written: int\n"
                    "    unread: int = 0\n"
                    "box.read + getattr(box, 'by_name')\n"
                    "box.written = 1\n")
    assert _unread_fields([path], [path]) == [
        "sample.py:6 Box.written", "sample.py:7 Box.unread"]


def test_field_guards_see_named_tuples(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text("from dataclasses import dataclass\n"
                    "from typing import NamedTuple\n"
                    "@dataclass\n"
                    "class Box:\n"
                    "    size: int\n"
                    "    kind: str\n"
                    "class Pair(NamedTuple):\n"
                    "    kind: str\n"
                    "    spare: int\n"
                    "class Plain:\n"
                    "    size: int\n"
                    "box.size + pair.kind\n")
    assert _unread_fields([path], [path]) == ["sample.py:9 Pair.spare"]
    assert _shared_fields([path]) == {"kind"}


def test_field_guard_reads_by_receiver_and_destination(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from dataclasses import dataclass, replace\n"
        "@dataclass\n"
        "class Ring:\n"
        "    q: int\n"
        "    size: int\n"
        "    def grown(self, by): return replace(self, size=self.size + by)\n"
        "@dataclass\n"
        "class Elem:\n"
        "    loss: int\n"
        "    size: int\n"
        "    @staticmethod\n"
        "    def make(size, loss=None): return Elem(loss, size)\n"
        "    def neg(self): return Elem(self.loss, -self.size)\n"
        "    def add(self, other: 'Elem'):\n"
        "        return Elem.make(self.size, loss=min(self.loss, other.loss))\n"
        "@dataclass\n"
        "class Complex:\n"
        "    loss: int\n"
        "    kind: str\n"
        "@dataclass\n"
        "class File:\n"
        "    q: int\n"
        "def report(c: Complex, e: Elem): return c.kind, e.size\n"
        "def summary(c: Complex): return c.loss\n"
        "def ring(pf): return Ring(q=pf.q, size=1)\n")
    # Ring.size is read only into a copy of itself, Elem.loss only into new
    # Elems and through a receiver of another class with a loss field; Ring.q
    # is never read, while pf.q counts for File though it lands in a Ring
    assert _unread_fields([path], [path]) == [
        "sample.py:4 Ring.q", "sample.py:5 Ring.size", "sample.py:9 Elem.loss"]
    # the same read through a receiver of no clear class counts for both
    path.write_text(path.read_text().replace("c: Complex): return c.loss",
                                             "c): return c.loss"))
    assert _unread_fields([path], [path]) == [
        "sample.py:4 Ring.q", "sample.py:5 Ring.size"]


def test_field_guard_sees_plain_records(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "class Slotted:\n"
        "    __slots__ = ('read', 'unread')\n"
        "    def __init__(self, read): self.read = read\n"
        "class Plain:\n"
        "    def __init__(self, a, b):\n"
        "        self.a, self.spare = a, b\n"
        "        self.cache: dict = {}\n"
        "    def size(self): return len(self.cache)\n"
        "class Frozen:\n"
        "    def __init__(self, x, unset):\n"
        "        object.__setattr__(self, 'x', x)\n"
        "        object.__setattr__(self, 'unset', unset)\n"
        "    def __setattr__(self, name, value): raise AttributeError(name)\n"
        "def use(s: Slotted, p: Plain, f: Frozen):\n"
        "    return s.read, p.a, f.x, Frozen(0, f.unset)\n")
    # Frozen.unset is read only into a new Frozen's field of that name
    assert _unread_fields([path], [path]) == [
        "sample.py:2 Slotted.unread", "sample.py:6 Plain.spare",
        "sample.py:12 Frozen.unset"]
    assert _shared_fields([path]) == set()


def test_field_guards_see_named_tuple_subclasses(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(
        "from typing import NamedTuple\n"
        "class _Fields(NamedTuple):\n"
        "    size: int\n"
        "    kind: str\n"
        "    spare: int\n"
        "class Checked(_Fields):\n"
        "    __slots__ = ()\n"
        "    def __new__(cls, size, kind, spare=0):\n"
        "        return tuple.__new__(cls, (size, kind, spare))\n"
        "    def grown(self): return self._replace(size=self.size + 1)\n"
        "class Pair(NamedTuple):\n"
        "    left: int\n"
        "    right: int = 0\n"
        "def relabel(c: Checked): return Checked(c.size, c.kind)\n"
        "def kind(c: Checked, p: Pair): return c.kind, p.left, p.right\n"
        "Checked(1, 'a', spare=2); Pair(1)\n")
    # the fields sit on the base: a read through the derived class counts
    # for it, a read into a copy of the derived class does not
    assert _unread_fields([path], [path]) == [
        "sample.py:3 _Fields.size", "sample.py:5 _Fields.spare"]
    # a call of the derived class binds its __new__, and a NamedTuple class
    # generates a constructor of its fields
    assert _unpassed([path], [path]) == ["sample.py:13 Pair.__init__(right)"]
    path.write_text(path.read_text().replace("spare=2", "2"))
    assert _unpassed([path], [path]) == ["sample.py:13 Pair.__init__(right)"]
    path.write_text(path.read_text().replace("'a', 2)", "'a')"))
    assert _unpassed([path], [path]) == [
        "sample.py:8 Checked.__new__(spare)",
        "sample.py:13 Pair.__init__(right)"]
