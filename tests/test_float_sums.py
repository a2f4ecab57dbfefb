"""No built-in sum() in src/glsn but where it is known to be exact or waits
on a regenerated fixture: from Python 3.12 on, sum() adds floats with
Neumaier compensation, so the same float sum gives other bits on other
Pythons. math.fsum is correctly rounded on every version. Nor do the fits
call a numpy reduction or BLAS routine, whose bits could move with the CPU."""

import ast
from collections import Counter
from pathlib import Path

import glsn

# (file, innermost function) -> how many sum() calls it may hold
ALLOWED = {
    # raw_total sums floats, but math.fsum there changes every generated
    # bilateral value and so the inputs the benchmark's references hold; it
    # waits for their one-time regeneration together with the switch to
    # scalar exp and log (ROADMAP items 3 and 4)
    ("fixture.py", "generate"): 1,
}


class _Scoped(ast.NodeVisitor):
    """Counts what it finds by the innermost function it is found in."""

    def __init__(self):
        self.where, self.found = ["<module>"], Counter()

    def visit_FunctionDef(self, node):
        self.where.append(node.name)
        self.generic_visit(node)
        self.where.pop()

    visit_AsyncFunctionDef = visit_FunctionDef


class _SumCalls(_Scoped):
    def __init__(self, path: Path):
        super().__init__()
        self.path = path

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


# numpy calls whose sums take an order, a blocking or a SIMD width of numpy's
# or the BLAS's choosing, so that their bits can move with the CPU or library
REDUCTIONS = {
    "sum", "dot", "vdot", "inner", "tensordot", "matmul", "einsum", "reduce",
    "linalg", "mean", "std", "var", "prod", "average", "nansum", "nanmean",
}
# (function, name) -> how many uses econometrics.py may hold; _zscore's
# pairwise mean and std wait on ROADMAP item 4, as moving them changes golden
# bytes. np.add.accumulate is not listed: it is a sequential running sum.
ALLOWED_REDUCTIONS = {("_zscore", "mean"): 1, ("_zscore", "std"): 1}


class _Reductions(_Scoped):
    def visit_Attribute(self, node):
        if node.attr in REDUCTIONS:
            self.found[(self.where[-1], node.attr)] += 1
        self.generic_visit(node)

    def visit_BinOp(self, node):
        if isinstance(node.op, ast.MatMult):
            self.found[(self.where[-1], "@")] += 1
        self.generic_visit(node)

    visit_AugAssign = visit_BinOp

    def visit_ImportFrom(self, node):
        if node.module and node.module.split(".")[0] == "numpy":
            self.found[(self.where[-1], f"from {node.module} import")] += 1


def test_fits_use_no_numpy_reduction_or_blas():
    """Every sum of a fit is a math.fsum: a batched fit that swapped one for
    numpy's pairwise or SIMD sum would move bits from CPU to CPU."""
    path = Path(glsn.__file__).parent / "econometrics.py"
    calls = _Reductions()
    calls.visit(ast.parse(path.read_text(), str(path)))
    assert dict(calls.found) == ALLOWED_REDUCTIONS
