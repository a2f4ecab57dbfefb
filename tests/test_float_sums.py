"""No built-in sum() in src/glsn but where it is known to be exact or waits
on a regenerated fixture: from Python 3.12 on, sum() adds floats with
Neumaier compensation, so the same float sum gives other bits on other
Pythons. math.fsum is correctly rounded on every version."""

import ast
from collections import Counter
from pathlib import Path

import glsn

# (file, innermost function) -> how many sum() calls it may hold
ALLOWED = {
    # sums ints: exact on every Python
    ("econometrics.py", "_subtree_size"): 1,
    # raw_total sums floats, but math.fsum there changes every generated
    # bilateral value and so the inputs the benchmark's references hold; it
    # waits for their one-time regeneration together with the switch to
    # scalar exp and log (ROADMAP items 3 and 4)
    ("fixture.py", "generate"): 1,
}


class _SumCalls(ast.NodeVisitor):
    def __init__(self, path: Path):
        self.path, self.where, self.found = path, ["<module>"], Counter()

    def visit_FunctionDef(self, node):
        self.where.append(node.name)
        self.generic_visit(node)
        self.where.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        if isinstance(node.func, ast.Name) and node.func.id == "sum":
            self.found[(self.path.name, self.where[-1])] += 1
        self.generic_visit(node)


def test_no_builtin_sum_but_the_named_ones():
    found = Counter()
    for path in sorted(Path(glsn.__file__).parent.glob("*.py")):
        calls = _SumCalls(path)
        calls.visit(ast.parse(path.read_text(), str(path)))
        found += calls.found
    assert dict(found) == ALLOWED
