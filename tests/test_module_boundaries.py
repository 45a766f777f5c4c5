"""Module boundaries of the package, checked on its syntax trees.

Modules share only public names: no module imports a private (underscore)
name from another one.  Per-ring caches, sums and determinants each go
through their one path.  `src/` holds only what the console script, the
demos and the benchmark reach, reads every name it imports, and names no
method that only the tests read."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "superinduce"


def _sibling_imports(path: Path):
    """(line, name) for every name a module imports from the package."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "superinduce"
        ):
            for alias in node.names:
                yield node.lineno, alias.name


def test_no_module_imports_another_modules_private_name():
    imported = [
        (path.name, line, name)
        for path in sorted(SRC.glob("*.py"))
        for line, name in _sibling_imports(path)
    ]
    assert len(imported) > 50  # the walk reaches the package's own imports
    assert [hit for hit in imported if hit[2].startswith("_")] == []


def _cache_access(path: Path):
    """(innermost enclosing function, line) for every read or write of an
    attribute named `_cache`."""
    tree = ast.parse(path.read_text(), filename=str(path))
    owner = {}
    for func in ast.walk(tree):  # breadth first: nested functions come later
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((node, func.name) for node in ast.walk(func))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "_cache":
            yield owner.get(node, "<module>"), node.lineno


def test_per_ring_cache_is_reached_only_through_ambient_cached():
    # Ambient.cached is the one check-and-store path for per-ring values, and
    # the one place where cache hits and misses can be counted
    access = {
        (path.name, name)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "superpoly.py"
        for name, _ in _cache_access(path)
    }
    assert access == set()
    assert {name for name, _ in _cache_access(SRC / "superpoly.py")} == {"cached"}


def _loc_add_folds(path: Path):
    """(function, line) for every `x = loc_add(x, ...)` (or with x second)
    inside the body of a for or while loop."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for loop in ast.walk(func):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            for node in (n for stmt in loop.body + loop.orelse for n in ast.walk(stmt)):
                if not (
                    isinstance(node, ast.Assign)
                    and isinstance(node.value, ast.Call)
                    and isinstance(node.value.func, ast.Name)
                    and node.value.func.id == "loc_add"
                ):
                    continue
                targets = {t.id for t in node.targets if isinstance(t, ast.Name)}
                args = {a.id for a in node.value.args if isinstance(a, ast.Name)}
                if targets & args:
                    yield func.name, node.lineno


def test_sums_of_localized_elements_go_through_loc_sum():
    # a fold of loc_add raises the growing partial sum to a new common
    # denominator at every step; fraction.loc_sum does it once for all pieces
    folds = {
        (path.name, name, line)
        for path in sorted(SRC.glob("*.py"))
        for name, line in _loc_add_folds(path)
    }
    assert folds == set()


def _enclosing_functions(tree):
    """Each node of the tree mapped to its innermost enclosing function's name."""
    owner = {}
    for func in ast.walk(tree):  # breadth first: nested functions come later
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner.update((node, func.name) for node in ast.walk(func))
    return owner


def _calls(node, name):
    return [n for n in ast.walk(node)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == name]


def _sums_of_products(source: str):
    """(function, line) for every `loc_sum(...)` whose list, set or
    comprehension argument builds its items from `loc_mul(...)` calls, and
    every `x = x + a * b` (or `-`, or `x += a * b`) inside a loop body."""
    tree = ast.parse(source)
    owner = _enclosing_functions(tree)
    built = (ast.List, ast.Set, ast.Tuple, ast.ListComp, ast.SetComp, ast.GeneratorExp)
    for call in _calls(tree, "loc_sum"):
        if any(isinstance(arg, built) and _calls(arg, "loc_mul") for arg in call.args):
            yield owner.get(call, "<module>"), call.lineno
    for loop in ast.walk(tree):
        if not isinstance(loop, (ast.For, ast.While)):
            continue
        for node in (n for stmt in loop.body + loop.orelse for n in ast.walk(stmt)):
            if isinstance(node, ast.AugAssign) and isinstance(node.op, (ast.Add, ast.Sub)):
                target, product = node.target, node.value
            elif (isinstance(node, ast.Assign) and len(node.targets) == 1
                  and isinstance(node.value, ast.BinOp)
                  and isinstance(node.value.op, (ast.Add, ast.Sub))
                  and isinstance(node.value.left, ast.Name)
                  and isinstance(node.targets[0], ast.Name)
                  and node.value.left.id == node.targets[0].id):
                target, product = node.targets[0], node.value.right
            else:
                continue
            if (isinstance(target, ast.Name) and isinstance(product, ast.BinOp)
                    and isinstance(product.op, ast.Mult)):
                yield owner.get(node, "<module>"), node.lineno


def test_sums_of_products_go_through_one_dot():
    # a product built only to be added into a sum costs its own dict and
    # clean; fraction.loc_dot and superpoly.dot make every product of the
    # sum in one pass
    found = {
        (path.name, name, line)
        for path in sorted(SRC.glob("*.py"))
        for name, line in _sums_of_products(path.read_text())
    }
    assert found == set()


def test_the_sum_of_products_check_sees_every_form():
    source = '''
def listed(amb, xs, y):
    return loc_sum(amb, [loc_mul(x, y) for x in xs])

def starred(amb, xs, y):
    return loc_sum(amb, [*(loc_mul(x, y) for x in xs), y])

def conditional(amb, terms):
    return loc_sum(amb, [loc_mul(t, w) if w else t for w, t in terms])

def scaled(amb, v, y, c):
    return loc_sum(amb, [loc_scale(loc_mul(v, y), c)])

def folded(amb, pairs):
    total = amb.zero()
    for a, b in pairs:
        total = total + a * b
    return total

def folded_in_place(amb, pairs):
    total = amb.zero()
    for a, b in pairs:
        total -= a * b
    return total

def kept(amb, pieces, ys):
    terms = [loc_mul(p, y) for p, y in zip(pieces, ys)]  # products kept apart
    out = amb.one()
    for y in ys:
        out = out * y  # a product fold, not a sum
    return loc_sum(amb, terms), loc_dot(amb, zip(pieces, ys)), out
'''
    assert sorted(name for name, _ in _sums_of_products(source)) == [
        "conditional", "folded", "folded_in_place", "listed", "scaled", "starred"]


def _imports_permutations(path: Path) -> bool:
    """Whether a module imports itertools.permutations or reads it as an
    attribute of itertools."""
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and node.module == "itertools":
            if any(alias.name == "permutations" for alias in node.names):
                return True
        if (isinstance(node, ast.Attribute) and node.attr == "permutations"
                and isinstance(node.value, ast.Name) and node.value.id == "itertools"):
            return True
    return False


def test_only_det_and_odd_linked_walk_permutations():
    # superpoly.det is the one Leibniz sum, so no other module walks
    # permutations for a determinant; linkage.odd_linked walks rearrangements
    users = {path.name for path in sorted(SRC.glob("*.py")) if _imports_permutations(path)}
    assert "superpoly.py" in users
    assert users <= {"superpoly.py", "linkage.py"}


def _reduce_calls(source: str):
    """(innermost enclosing function, line) for every call of
    functools.reduce, by a name imported from functools or as an attribute of
    functools."""
    tree = ast.parse(source)
    names = {alias.asname or alias.name
             for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "functools"
             for alias in node.names if alias.name == "reduce"}
    owner = _enclosing_functions(tree)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if (isinstance(func, ast.Name) and func.id in names) or (
                isinstance(func, ast.Attribute) and func.attr == "reduce"
                and isinstance(func.value, ast.Name) and func.value.id == "functools"):
            yield owner.get(node, "<module>"), node.lineno


def test_only_superpoly_product_folds_with_reduce():
    # superpoly.product is the one fold of an ordered product, and it starts
    # from the first factor; fraction.loc_product folds the numerators through it
    callers = {
        (path.name, name)
        for path in sorted(SRC.glob("*.py"))
        for name, _ in _reduce_calls(path.read_text())
    }
    assert callers == {("superpoly.py", "product")}


def _is_one(node) -> bool:
    """Whether node is `<expr>.one()` or `embed_poly(<expr>.one())`."""
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "embed_poly" and len(node.args) == 1):
        node = node.args[0]
    return (isinstance(node, ast.Call) and not node.args
            and isinstance(node.func, ast.Attribute) and node.func.attr == "one")


def _rebinds_to_product_with_itself(node, names) -> bool:
    """Whether node rebinds a name of `names` to a product with itself:
    `x = x * y`, `x = y * x`, `x *= y`, `x = loc_mul(x, y)` or
    `x = loc_mul(y, x)`."""
    if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Mult):
        target, operands = node.target, [node.target]
    elif isinstance(node, ast.Assign) and len(node.targets) == 1:
        target, value = node.targets[0], node.value
        if isinstance(value, ast.BinOp) and isinstance(value.op, ast.Mult):
            operands = [value.left, value.right]
        elif (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
              and value.func.id == "loc_mul"):
            operands = value.args
        else:
            return False
    else:
        return False
    return isinstance(target, ast.Name) and target.id in names and any(
        isinstance(op, ast.Name) and op.id == target.id for op in operands)


def _folds_from_one(source: str):
    """(function, line) for every name that a function sets to `….one()`,
    bare or inside `embed_poly(...)`, and then rebinds, inside the body of a
    for or while loop, to a product with itself."""
    tree = ast.parse(source)
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        ones = {target.id
                for node in ast.walk(func)
                if isinstance(node, ast.Assign) and _is_one(node.value)
                for target in node.targets if isinstance(target, ast.Name)}
        for loop in ast.walk(func):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            for node in (n for stmt in loop.body + loop.orelse for n in ast.walk(stmt)):
                if _rebinds_to_product_with_itself(node, ones):
                    yield func.name, node.lineno


def test_no_product_starts_from_one():
    # a fold from one copies its whole first factor through dot, with a Koszul
    # mask per odd term; superpoly.product starts from the first factor
    folds = {
        (path.name, name, line)
        for path in sorted(SRC.glob("*.py"))
        for name, line in _folds_from_one(path.read_text())
    }
    assert folds == set()


def test_the_fold_checks_see_every_form():
    starts = {"bare": "amb.one()", "embedded": "embed_poly(amb.one())"}
    loops = {"for": "for y in ys:", "while": "while ys:\n        y = ys.pop()"}
    forms = {
        "times": "out = out * y",
        "times_left": "out = y * out",
        "in_place": "out *= y",
        "loc_mul": "out = loc_mul(out, y)",
        "loc_mul_second": "out = loc_mul(y, out)",
    }
    planted = {f"{form}_{loop}_{start}": (
        f"def {form}_{loop}_{start}(amb, ys):\n"
        f"    out = {starts[start]}\n"
        f"    {loops[loop]}\n"
        f"        {forms[form]}\n"
        f"    return out\n")
        for form in forms for loop in loops for start in starts}
    kept = '''
def from_first(amb, ys):
    out = ys[0]
    for y in ys[1:]:
        out = loc_mul(out, y)
    return out

def one_kept_apart(amb, ys):
    one = amb.one()
    total = amb.zero()
    for y in ys:
        total = total + one * y  # a product with one, but no fold
    return total

def through_product(amb, ys):
    return functools.reduce(mul, ys)
'''
    source = "\n".join(planted.values()) + kept
    assert sorted(name for name, _ in _folds_from_one(source)) == sorted(planted)
    assert [name for name, _ in _reduce_calls(source)] == ["through_product"]
    aliased = "from functools import reduce as fold\n\ndef f(xs):\n    return fold(mul, xs)\n"
    assert [name for name, _ in _reduce_calls(aliased)] == ["f"]


REPO = SRC.parent.parent
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _product_names(source: str) -> set:
    """Every name, attribute and identifier string of a file outside the
    package: whatever it can reach a definition by, directly, through a module
    alias (`fp.name`) or through a table of strings (`"fraction.loc_eq"`)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(part for part in node.value.split(".") if part.isidentifier())
    return names


def _unreached(modules: dict, product_sources) -> list:
    """(module, name), in source order, of every top-level function or class
    of the package `modules` (module name -> source) that no root reaches.

    The roots are the package's module-level statements other than imports
    (an `__all__` among them), `cli.main`, and every definition whose name a
    product source holds.  A reached definition or statement reaches each
    name it reads that its module defines or imports from a sibling module;
    methods count as part of their class.  A string reaches such a name only
    in a module-level statement, where `__all__` names what the package
    exports: inside a definition a string is data, such as the kind an
    operator is compared with."""
    defs, scopes, pending = {}, {}, []
    for mod, source in modules.items():
        scope = scopes[mod] = {}
        for stmt in ast.parse(source).body:
            if isinstance(stmt, _DEFS):
                defs[mod, stmt.name] = stmt
                scope[stmt.name] = (mod, stmt.name)
            elif isinstance(stmt, ast.ImportFrom):
                if stmt.level or (stmt.module or "").startswith("superinduce"):
                    sibling = (stmt.module or "").rpartition(".")[2]
                    scope.update(
                        (alias.asname or alias.name, (sibling, alias.name))
                        for alias in stmt.names
                    )
            elif not isinstance(stmt, ast.Import):
                pending.append((mod, stmt, True))

    def resolve(mod, name):
        target = scopes[mod].get(name)
        return target if target in defs else None

    names = set().union(*map(_product_names, product_sources))
    reached = {key for key in defs if key[1] in names or key == ("cli", "main")}
    pending += [(key[0], defs[key], False) for key in reached]
    while pending:
        mod, root, module_level = pending.pop()
        found = []
        for node in ast.walk(root):
            if isinstance(node, ast.Name):
                found.append(resolve(mod, node.id))
            elif (module_level and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                found.append(resolve(mod, node.value))
        for key in found:
            if key is not None and key not in reached:
                reached.add(key)
                pending.append((key[0], defs[key], False))
    return [key for key in defs if key not in reached]


def _product_sources():
    product = sorted(REPO.glob("demos/*.py")) + sorted(
        path for path in REPO.glob("perfbench/**/*.py")
        if "tests" not in path.relative_to(REPO / "perfbench").parts
    )
    return [path.read_text() for path in product]


def test_every_src_definition_is_reached():
    # src/ holds what the console script, the demos and the benchmark reach;
    # a definition only the tests read is an oracle and lives under tests/
    modules = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    product = _product_sources()
    assert len(product) >= 9  # the three demos and the benchmark's modules
    unreached = _unreached(modules, product)
    assert not unreached, f"no product code reaches {unreached}"


def _methods(source: str):
    """(class, method) for every method of a top-level class whose name is
    not a dunder."""
    for stmt in ast.parse(source).body:
        if isinstance(stmt, ast.ClassDef):
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and not (
                    item.name.startswith("__") and item.name.endswith("__")
                ):
                    yield stmt.name, item.name


def test_every_src_method_name_is_read():
    # the reachability walk takes a class's methods with the class, so a
    # method only the tests call would stay in src/ unseen; every method name
    # must be read somewhere in src/, the demos or the benchmark
    modules = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    names = set().union(*map(_product_names, [*modules.values(), *_product_sources()]))
    methods = [(mod, cls, name) for mod, source in modules.items()
               for cls, name in _methods(source)]
    assert len(methods) > 20  # the scan reaches the package's classes
    unread = [method for method in methods if method[2] not in names]
    assert not unread, f"no product code reads {unread}"


def test_the_reachability_walk_sees_every_route():
    modules = {
        "__init__": "from .core import exported\n__all__ = ['exported']\n",
        "core": '''
def exported():
    return helper()

def helper():
    return 1

def planted():
    return only_via_planted()

def only_via_planted():
    return 2

def read_by_attribute():
    return 3

def named_in_a_layer_table():
    return 4

def compares_a_kind(kind):
    return kind == "named_only_by_a_compared_string"

def named_only_by_a_compared_string():
    return 5
''',
    }
    demo = ("import superinduce.core as fp\n\n"
            "print(fp.read_by_attribute(), fp.compares_a_kind('x'))\n")
    layers = 'LAYERS = [("core", "named_in_a_layer_table", "core.calls", None, False)]\n'
    unreached = _unreached(modules, [demo, layers])
    judged = ["planted", "only_via_planted", "read_by_attribute", "named_in_a_layer_table",
              "compares_a_kind", "named_only_by_a_compared_string"]
    assert [("core", name) not in unreached for name in judged] == [
        False, False, True, True, True, False]
    assert unreached == [("core", "planted"), ("core", "only_via_planted"),
                         ("core", "named_only_by_a_compared_string")]


def _unread_imports(source: str) -> list:
    """Every name a module imports and never reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names]
    return [name for name in bound if name not in read]


def test_src_modules_read_every_name_they_import():
    # __init__ imports only to re-export
    unread = {
        (path.name, name)
        for path in sorted(SRC.glob("*.py"))
        if path.name != "__init__.py"
        for name in _unread_imports(path.read_text())
    }
    assert unread == set()
