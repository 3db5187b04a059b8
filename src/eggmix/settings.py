"""The solver settings, each stated once: its default and its valid values.

A geometry file's ``solver`` object, the ``eggmix solve`` flags and the
library (:class:`~eggmix.assembly.MixedSystem`,
:class:`~eggmix.solver.SolverConfig`,
:func:`~eggmix.solver.build_system_hierarchy`) take their defaults from
``DEFAULTS`` and check their values with :func:`setting_problem`, so all of
them accept and refuse the same values; docs/geometry_schema.json documents
this table. A bool is no number here, although Python counts it as an
integer: JSON ``true`` and ``false`` load as bool. numpy scalars are
numbers.
"""

from __future__ import annotations

import math
import numbers

from .errors import InputError

MODES = ("full", "xi", "eta")

# the numeric settings: key -> (default, integer, minimum, minimum
# excluded, maximum)
RANGES = {
    "mu": (1e-4, False, 0, True, math.inf),
    "chi": (0.5, False, 0, False, 1),
    "newton_tol": (1e-8, False, 0, True, math.inf),
    "max_newton": (50, True, 1, False, math.inf),
    # each level multiplies the element count by 4
    "coarse_levels": (0, True, 0, False, 4),
}
DEFAULTS = {"mode": MODES[0], **{key: spec[0] for key, spec in RANGES.items()}}


def is_integer(v):
    """Whether ``v`` is an integer, a Python or numpy one, and not a bool."""
    # int first: isinstance with an abstract base class is several times slower
    return isinstance(v, (int, numbers.Integral)) and not isinstance(v, bool)


def is_number(v):
    """Whether ``v`` is an integer or a finite real number (json.load reads
    NaN, Infinity and -Infinity as floats), and not a bool."""
    if isinstance(v, float):  # the common case, checked first for speed
        return math.isfinite(v)
    return is_integer(v) or (isinstance(v, numbers.Real) and not isinstance(v, bool)
                             and math.isfinite(v))


def setting_problem(key, value):
    """Why ``value`` is not a valid value of the setting ``key``, or None
    when it is."""
    if key == "mode":
        return None if value in MODES else \
            f"expected {', '.join(MODES[:-1])} or {MODES[-1]}"
    _, integer, lo, lo_open, hi = RANGES[key]
    if (is_integer(value) if integer else is_number(value)) \
            and (value > lo if lo_open else value >= lo) and value <= hi:
        return None
    kind = "an integer" if integer else "a finite number"
    upper = f" and <= {hi:g}" if hi < math.inf else ""
    return f"expected {kind} {'>' if lo_open else '>='} {lo:g}{upper}"


def check_settings(**values):
    """Raise InputError, naming the setting, at the first of ``values``
    that :func:`setting_problem` refuses."""
    for key, value in values.items():
        problem = setting_problem(key, value)
        if problem:
            raise InputError(f"{key}: {problem}")
