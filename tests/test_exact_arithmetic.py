"""No floating point in any verification path: every check compares exact ints and Fractions.

The package source is read as syntax trees, so a true division, a float
literal or a ``float(...)`` call anywhere outside the three places that are
meant to hold floats fails here, whether or not a test reaches it.
"""

import ast
from pathlib import Path

import abovetight

# (module, top-level function or class) allowed to hold floats: the labelled Monte-Carlo
# estimator, the generator's coin flip (rng.random() < 0.5) and the result's wall-clock time.
FLOAT_PLACES = {
    ("moments", "estimate_moments"),
    ("instances", "gen_instance"),
    ("cli", "RunResult"),
}


def float_uses(tree: ast.Module):
    """(top-level name or None, line, what) for each float operation in a module."""
    for top in tree.body:
        name = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else None
        for node in ast.walk(top):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                what = "/" if isinstance(node, ast.BinOp) else "/="
            elif isinstance(node, ast.Constant) and isinstance(node.value, float):
                what = "float literal %r" % node.value
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
                what = "float() call"
            else:
                continue
            yield name, node.lineno, what


def test_no_floating_point_outside_the_estimator_the_generator_and_the_timer():
    package = Path(abovetight.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for name, line, what in float_uses(ast.parse(path.read_text(encoding="utf-8"))):
            if (path.stem, name) not in FLOAT_PLACES:
                found.append("%s:%d %s in %s" % (path.name, line, what, name))
    assert not found, found


def test_the_scan_sees_each_kind_of_float_use():
    source = "x = a / b\ny = 1.5\ndef f(c):\n    c /= 2\n    return float(c)\n"
    uses = list(float_uses(ast.parse(source)))
    assert [(name, line) for name, line, _ in uses] == [(None, 1), (None, 2), ("f", 4), ("f", 5)]
