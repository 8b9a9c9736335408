"""The optimizers' per-step code calls numpy's C functions directly.

At 6 tasks x 3 nodes an array holds a few dozen numbers, so a step costs
what its numpy calls cost.  The ndarray reduction methods (``.sum``,
``.any``, ``.all``, ``.min``, ``.max``), ``np.flatnonzero``, ``np.clip``
and the ``np.*_along_axis`` helpers each pay a Python-level wrapper on every
call, more than their arithmetic at that size.  This test walks the source of
the per-step functions and of the optimizers' loop bodies and fails on any
such call; the ufunc equivalents (``np.add.reduce``,
``np.logical_and.reduce``, ``np.count_nonzero``, ``.nonzero()[0]``, flat
indexing, ``np.maximum`` then ``np.minimum`` for a clip of non-NaN values)
give the same bits.

A clamp in that code (``np.maximum`` or ``np.minimum``) takes no numeric
literal and no scalar attribute as an operand: numpy 2.4 runs a clamp
against a scalar in a loop that is several times slower than the one for
two arrays of one shape, while arithmetic with a scalar is as fast as with
an array.  So each clamp bound is an array of the clamped array's full
shape: made once per run, or a spent workspace buffer filled with the
bound.  Timings, best of 7, numpy 2.4.6, Python 3.11, 2-CPU AMD EPYC VM:

    shape    scalar    row-broadcast    full-shape array
    20x600   4.87 us   2.29 us          1.08 us
    30x600   7.12 us   2.87 us          1.49 us
    20x6     0.37 us   0.65 us          0.20 us

and a fill of a 30x600 buffer takes 1.9 us, so a filled spent buffer still
beats the scalar.  The scalar and the array forms give the same bits on
every input, signed zeros and NaNs included; ``test_clamp_bits`` guards
that against a numpy release that changes it.
"""

import ast
import inspect
from pathlib import Path

import numpy as np
import pytest

import fogsched
from fogsched import geo, igeo, metrics, rl

# the functions that run once or more per episode or iteration
PER_STEP = {
    rl: ("_column_totals", "_pairwise_ops", "_stepper", "_list_stepper"),
    geo: (
        "decode_position",
        "_round_half_up",
        "_Flock.move",
        "_Flock.orthogonal_cruise",
        "_Flock.scaled_step",
        "_SubProblem.fitness_of",
        "_SubProblem.fitness_many",
    ),
    igeo: ("_is_mutation", "_branch_draws", "_offspring"),
    metrics: (
        "_SubsetContext.objectives",
        "_SubsetContext.fitness",
        "_Workspace.cut",
        "_lane_queues",
    ),
}
# the functions whose loop bodies are the per-step code
LOOPS = {rl: ("_run",), geo: ("geo_optimize",), igeo: ("igeo_optimize",)}

WRAPPED_METHODS = {"sum", "any", "all", "min", "max"}
WRAPPED_FUNCTIONS = {"flatnonzero", "take_along_axis", "put_along_axis", "clip"}

CLAMPS = {"maximum", "minimum"}
# decode_position runs once per run, not per step, on positions of any
# float type: a scalar bound keeps that type, where an array bound would
# promote a float32 position to float64 and could round it differently
CLAMP_EXEMPT = {"decode_position"}
# a sample of each class whose methods the check walks, to tell an array
# attribute (``self.x``) from a scalar one
SAMPLES = {"_Flock": lambda: geo._Flock(np.zeros((2, 3)), 2.0)}


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


def _is_number(node):
    """Whether ``node`` is a numeric literal, signed or folded (``-1.0``, ``2 ** 8``)."""
    if isinstance(node, ast.Constant):
        return isinstance(node.value, (int, float)) and not isinstance(node.value, bool)
    if isinstance(node, ast.UnaryOp):
        return _is_number(node.operand)
    if isinstance(node, ast.BinOp):
        return _is_number(node.left) and _is_number(node.right)
    return False


def _is_array_attribute(node, cls):
    """Whether ``node``, ``self.<name>`` in a method of ``cls``, names an
    array of one or more dimensions on a sample of the class."""
    if not (isinstance(node.value, ast.Name) and node.value.id == "self" and cls in SAMPLES):
        return False
    value = getattr(SAMPLES[cls](), node.attr, None)
    return isinstance(value, np.ndarray) and value.ndim > 0


def _scalar_clamps(nodes, cls=None):
    """``(line, call text)`` of every ``np.maximum`` or ``np.minimum`` call
    under ``nodes`` with a numeric literal or a scalar attribute operand;
    ``cls`` names the class whose methods ``nodes`` are, if any."""
    found = []
    for node in nodes:
        for call in ast.walk(node):
            if not (
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Attribute)
                and call.func.attr in CLAMPS
                and isinstance(call.func.value, ast.Name)
                and call.func.value.id == "np"
            ):
                continue
            if any(
                _is_number(operand)
                or (isinstance(operand, ast.Attribute) and not _is_array_attribute(operand, cls))
                for operand in call.args[:2]
            ):
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


def test_hot_code_clamps_against_arrays():
    offenders = [
        f"{Path(module.__file__).name}:{line} in {name}: {text}"
        for module, name, nodes in _hot_code()
        if name not in CLAMP_EXEMPT
        for line, text in _scalar_clamps(nodes, name.split(".")[0] if "." in name else None)
    ]
    assert not offenders, "\n".join(offenders)


def test_clamp_exemptions_are_per_step_functions_that_clamp():
    """An exemption names checked code that still clamps against a scalar."""
    code = {name: nodes for _, name, nodes in _hot_code()}
    for name in CLAMP_EXEMPT:
        assert _scalar_clamps(code[name]), f"{name} no longer needs its exemption"


@pytest.mark.parametrize(
    "source",
    [
        "np.maximum(x, 0.0, out=x)",
        "np.maximum(0.0, x, out=x)",
        "np.minimum(x, -1)",
        "np.minimum(x, 2 ** 8 - 1.0)",
        "np.minimum(x, self.bound, out=x)",
        "np.maximum(config.floor, x)",
    ],
)
def test_the_clamp_check_finds_each_scalar_operand(source):
    assert len(_scalar_clamps([ast.parse(source)], "_Flock")) == 1


@pytest.mark.parametrize(
    "source",
    [
        "np.maximum(x, zeros, out=x)",
        "np.maximum(zeros, x, out=x)",
        "np.minimum(positions, self.positions, out=positions)",
        "np.maximum.reduce(x, axis=-1, initial=0.0)",
        "max(x, 0.0)",
    ],
)
def test_the_clamp_check_passes_array_operands(source):
    assert _scalar_clamps([ast.parse(source)], "_Flock") == []


SPECIAL = [-0.0, 0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1.5, -2.25, 0.7, 19.0]


def _bits(array):
    return np.ascontiguousarray(array).view(np.int64)


@pytest.mark.parametrize("clamp", [np.maximum, np.minimum])
@pytest.mark.parametrize("shape", [(12,), (3, 6), (20, 6), (1, 600), (20, 600), (30, 601)])
def test_clamp_bits(clamp, shape):
    """A clamp against a scalar and against an array of the clamped array's
    shape holding that scalar give the same bits, in both operand orders,
    on every pair of special and ordinary values, in the size classes the
    optimizers run (tails and full vector blocks)."""
    special = np.array(SPECIAL)
    # -0.0 and one NaN carry the sign bit; +0.0 and the other do not
    assert np.signbit(special[[0, 3]]).all() and not np.signbit(special[[1, 2]]).any()
    values = np.resize(special, shape)
    for bound in SPECIAL:
        full = np.full(shape, bound)
        for scalar_form, array_form in (
            (clamp(values, bound), clamp(values, full)),
            (clamp(bound, values), clamp(full, values)),
            (clamp(values, bound, out=values.copy()), clamp(values, full, out=values.copy())),
            (clamp(bound, values, out=values.copy()), clamp(full, values, out=values.copy())),
        ):
            assert _bits(scalar_form).tolist() == _bits(array_form).tolist(), bound


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
        "np.clip(x, 0.0, 1.0, out=x)",
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
