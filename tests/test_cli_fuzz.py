"""Every subcommand, fed argv drawn from the whole float64 range, in process.

Whatever the input, the CLI exits 0 or 2; on exit 2 stdout is empty, and on
exit 0 it is strict JSON whose every number is finite.  Numbers are drawn
from all of float64 (subnormals, +-0, +-inf, nan, 1e308), as huge integers
written out, and as plausible values so that the success path is reached
too.  Sizes (--N, --n-max, --count, --Ns) are drawn at most 1e3, or past
every cap, so the suite stays fast; the cap and cap + 1 tests of each size
cover the limits themselves.  Lists go past their caps too: --Ns ladders
whose truncations sum past ``MAX_TERMS`` and --epsilons grids longer than
``MAX_CUTOFF_POINTS``, both refused before any value is computed.
"""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from casimir_kit.cli import main
from casimir_kit.series import MAX_CUTOFF_POINTS, MAX_TERMS

_HUGE_INTEGERS = st.integers(min_value=-10 ** 400, max_value=10 ** 400)
_FLOAT_TEXT = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["5e-324", "-5e-324", "0", "-0.0", "1e308", "-1e308",
                     "1.7976931348623157e308", "2.2250738585072014e-308",
                     "inf", "-inf", "nan", "1e400"]),
    _HUGE_INTEGERS.map(str),
)


def _magnitudes(lo, hi):
    """``10 ** x`` for x uniform in [lo, hi]: every scale in one range."""
    return st.floats(lo, hi).map(lambda x: 10.0 ** x)


def _numbers(lo, hi):
    """Any float text, or a magnitude between 10**lo and 10**hi."""
    return st.one_of(_magnitudes(lo, hi).map(repr), _FLOAT_TEXT)


def _lists(items):
    return st.lists(items, min_size=1, max_size=4).map(",".join)


_SIZES = st.one_of(st.integers(1, 1000), st.integers(-2, 0),
                   st.integers(10 ** 7 + 1, 10 ** 400), _FLOAT_TEXT).map(str)
_TRUNCATIONS = st.one_of(  # --Ns: increasing, past the term budget, or anything
    st.lists(st.integers(1, 1000), min_size=1, max_size=4, unique=True)
    .map(lambda Ns: ",".join(map(str, sorted(Ns)))),
    st.lists(st.integers(MAX_TERMS // 2 + 1, 10 ** 400), min_size=2,
             max_size=40, unique=True)
    .map(lambda Ns: ",".join(map(str, sorted(Ns)))),
    _lists(_SIZES))
_EPSILONS = st.one_of(  # --epsilons: decreasing, past the cap, or anything
    st.lists(_magnitudes(-323, -0.3), min_size=1, max_size=4, unique=True)
    .map(lambda grid: ",".join(map(repr, sorted(grid, reverse=True)))),
    st.lists(_magnitudes(-323, -0.3), min_size=MAX_CUTOFF_POINTS + 1,
             max_size=MAX_CUTOFF_POINTS + 8, unique=True)
    .map(lambda grid: ",".join(map(repr, sorted(grid, reverse=True)))),
    _lists(_FLOAT_TEXT))
# Gaps of every scale around each unit system's range, or any number with
# any suffix.
_LENGTHS = {
    "si": _magnitudes(-13, 0.5).map(lambda x: f"{x!r}m"),
    "natural": _magnitudes(-32, 32).map(repr),
}
_ANY_LENGTH = st.builds(str.__add__, _FLOAT_TEXT, st.sampled_from(
    ["", "m", "mm", "um", "nm", "pm"]))
_SIGNS = st.sampled_from(["negative", "magnitude"])


def _flag(name, values, required=True):
    """``["--name=value"]``, or sometimes ``[]`` for an optional flag.

    The ``=`` form lets a value such as ``-1e-06`` through argparse.
    """
    given_flag = values.map(lambda value: [f"--{name}={value}"])
    return given_flag if required else st.one_of(st.just([]), given_flag)


def _flags(units):
    """Strategies for each subcommand's flags, by subcommand."""
    L = st.one_of(_LENGTHS[units], _ANY_LENGTH)
    return {
        "energy": (_flag("gap", L), _flag("N", _SIZES, False),
                   _flag("sign", _SIGNS, False)),
        "force": (_flag("gap", L),),
        "modes": (_flag("gap", L), _flag("n-max", _SIZES, False)),
        "converge": (_flag("gap", L), _flag("Ns", _TRUNCATIONS),
                     _flag("sign", _SIGNS, False)),
        "zeta": (_flag("s", st.one_of(st.integers(-4, 16), _HUGE_INTEGERS).map(str)),
                 _flag("N", _SIZES, False)),
        "cutoff": (_flag("epsilons", _EPSILONS, False),),
        "paradox": (_flag("Li", L), _flag("situation", st.sampled_from(["one", "two"])),
                    _flag("Pi", _numbers(-323, 308), False)),
        "crossover": (_flag("rho", _numbers(-323, 308)),),
        "sweep": (_flag("quantity", st.sampled_from(["energy", "force"])),
                  _flag("min", L), _flag("max", L),
                  _flag("count", _SIZES, False),
                  _flag("scale", st.sampled_from(["log", "linear"]), False),
                  _flag("sign", _SIGNS, False)),
    }


def _reject_constant(name):
    raise ValueError(f"stdout carries the non-JSON constant {name}")


def _finite_float(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"stdout carries the non-finite number {text}")
    return value


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refusals
            code = exc.code
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("units", ["si", "natural"])
@pytest.mark.parametrize("command", sorted(_flags("si")))
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_any_argv_exits_zero_or_two(command, units, data):
    flags = [arg for part in _flags(units)[command] for arg in data.draw(part)]
    argv = [command, f"--units={units}", *flags]
    code, out, err = _run(argv)
    assert code in (0, 2), (argv, err)
    if code == 2:
        assert out == "", argv
    else:
        json.loads(out, parse_constant=_reject_constant, parse_float=_finite_float)
