"""The optimizers' per-step code calls numpy's C functions directly.

At 6 tasks x 3 nodes an array holds a few dozen numbers, so a step costs
what its numpy calls cost.  The ndarray reduction methods (``.sum``,
``.any``, ``.all``, ``.min``, ``.max``), ``np.flatnonzero`` and the
``np.*_along_axis`` helpers each pay a Python-level wrapper on every call,
more than their arithmetic at that size.  This test walks the source of the
per-step functions and of the optimizers' loop bodies and fails on any such
call; the ufunc equivalents (``np.add.reduce``, ``np.logical_and.reduce``,
``np.count_nonzero``, ``.nonzero()[0]``, flat indexing) give the same bits.
"""

import ast
import inspect
from pathlib import Path

import pytest

import fogsched
from fogsched import geo, igeo, metrics, rl

# the functions that run once or more per episode or iteration
PER_STEP = {
    rl: ("_column_totals", "_pairwise_ops", "_stepper"),
    geo: (
        "decode_position",
        "_orthogonal_cruise",
        "_scaled_step",
        "_swarm_move",
        "_SubProblem.fitness_of",
        "_SubProblem.fitness_many",
    ),
    igeo: ("_mutate_rows", "_cross_one", "_cross_two", "_is_mutation", "_offspring"),
    metrics: (
        "_SubsetContext.objectives",
        "_SubsetContext.fitness",
        "_Workspace.cut",
        "_lane_queues",
    ),
}
# the functions whose loop bodies are the per-step code
LOOPS = {rl: ("rl_optimize",), geo: ("geo_optimize",), igeo: ("igeo_optimize",)}

WRAPPED_METHODS = {"sum", "any", "all", "min", "max"}
WRAPPED_FUNCTIONS = {"flatnonzero", "take_along_axis", "put_along_axis"}


def _tree(module):
    return ast.parse(inspect.getsource(module))


def _find(tree, qualname):
    """The ``def`` node of a module-level function or a class method."""
    node = tree
    for name in qualname.split("."):
        node = next(
            (
                child
                for child in node.body
                if isinstance(child, (ast.FunctionDef, ast.ClassDef)) and child.name == name
            ),
            None,
        )
        assert node is not None, f"no {qualname}: rename it here too"
    return node


def _wrapper_calls(nodes):
    """``(line, call text)`` of every wrapper call under ``nodes``."""
    found = []
    for node in nodes:
        for call in ast.walk(node):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)):
                continue
            attr = call.func.attr
            receiver = call.func.value
            is_np = isinstance(receiver, ast.Name) and receiver.id == "np"
            if attr in WRAPPED_METHODS or (is_np and attr in WRAPPED_FUNCTIONS):
                found.append((call.lineno, ast.unparse(call)))
    return found


def _loop_bodies(function):
    return [
        statement
        for loop in ast.walk(function)
        if isinstance(loop, (ast.For, ast.While))
        for statement in loop.body
    ]


def _hot_code():
    """``(module, qualified name, nodes)`` of every checked piece of code."""
    for module, names in PER_STEP.items():
        tree = _tree(module)
        for name in names:
            yield module, name, [_find(tree, name)]
    for module, names in LOOPS.items():
        tree = _tree(module)
        for name in names:
            bodies = _loop_bodies(_find(tree, name))
            assert bodies, f"{name} has no loop"
            yield module, f"{name} loop", bodies


def test_hot_code_calls_no_wrapped_numpy_function():
    offenders = [
        f"{Path(module.__file__).name}:{line} in {name}: {text}"
        for module, name, nodes in _hot_code()
        for line, text in _wrapper_calls(nodes)
    ]
    assert not offenders, "\n".join(offenders)


def test_no_positional_out_for_minimum_or_maximum():
    """numpy 2.4 warns on every ``np.minimum(a, b, out)`` call; ``out=`` is
    also faster."""
    offenders = []
    for path in sorted(Path(fogsched.__file__).parent.glob("*.py")):
        for call in ast.walk(ast.parse(path.read_text())):
            if (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in ("minimum", "maximum")
                and len(call.args) >= 3
            ):
                offenders.append(f"{path.name}:{call.lineno}: {ast.unparse(call)}")
    assert not offenders, "\n".join(offenders)


@pytest.mark.parametrize(
    "source",
    [
        "x.sum(axis=0)",
        "(t == 0.0).any()",
        "z.all(axis=1)",
        "c.min(axis=1)",
        "c.max()",
        "np.sum(x)",
        "np.flatnonzero(m)",
        "np.take_along_axis(a, i, axis=1)",
        "np.put_along_axis(a, i, v, axis=1)",
    ],
)
def test_the_check_finds_each_wrapper(source):
    assert len(_wrapper_calls([ast.parse(source)])) == 1


@pytest.mark.parametrize(
    "source",
    [
        "np.add.reduce(x, axis=0)",
        "np.logical_and.reduce(z, axis=1)",
        "np.count_nonzero(t)",
        "m.nonzero()[0]",
        "np.minimum(a, b, out=c)",
        "min(1, 2)",
        "x.argmax(axis=1)",
    ],
)
def test_the_check_passes_direct_calls(source):
    assert _wrapper_calls([ast.parse(source)]) == []
