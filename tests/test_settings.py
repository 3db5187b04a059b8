"""Every solver setting accepts and refuses the same values on every way
in: the geometry file's validator, the library (``MixedSystem``,
``SolverConfig``, ``build_system_hierarchy``) and the ``eggmix solve`` flag
where there is one."""

import math

import numpy as np
import pytest

import eggmix.io_cli
import eggmix.solver
from eggmix.assembly import MixedSystem, boundary_values_from_faces
from eggmix.errors import InputError
from eggmix.geometries import build_square, path as bundled_path
from eggmix.io_cli import main, parse_geometry, validate_geometry
from eggmix.solver import SolverConfig, build_system_hierarchy

FLAGS = {"mode": "--mode", "mu": "--mu", "chi": "--chi", "newton_tol": "--tol",
         "coarse_levels": "--coarse-levels"}
TINY = math.ulp(0.0)
ABOVE_ONE = math.nextafter(1.0, 2.0)
# key -> (value, accepted) pairs: a bool, NaN, infinity, each bound and
# one step past it on either side, and a numpy scalar
CASES = {
    "mode": [(True, False), (math.nan, False), (math.inf, False),
             ("full", True), ("eta", True), ("diagonal", False),
             (np.str_("xi"), True)],
    "mu": [(True, False), (math.nan, False), (math.inf, False), (0.0, False),
           (-TINY, False), (TINY, True), (np.float32(1e-4), True)],
    "chi": [(True, False), (math.nan, False), (math.inf, False), (0.0, True),
            (-TINY, False), (1, True), (ABOVE_ONE, False),
            (np.float32(0.5), True)],
    "newton_tol": [(True, False), (math.nan, False), (math.inf, False),
                   (0.0, False), (-TINY, False), (TINY, True),
                   (np.float32(1e-8), True)],
    "max_newton": [(True, False), (math.nan, False), (math.inf, False),
                   (1, True), (0, False), (2.0, False), (np.int64(3), True)],
    "coarse_levels": [(True, False), (math.nan, False), (math.inf, False),
                      (0, True), (-1, False), (4, True), (5, False),
                      (np.int64(1), True)],
}


class Built(Exception):
    """Raised in place of building a hierarchy: every check before it passed."""


def refuse_build(*args, **kwargs):
    raise Built


def file_accepts(key, value):
    doc = build_square()
    doc["solver"] = {key: value}
    errors = [f.pointer for f in validate_geometry(doc) if f.severity == "error"]
    assert errors in ([], [f"/solver/{key}"])
    return not errors


def library_accepts(key, value, monkeypatch):
    geo = parse_geometry(build_square())
    bvals = boundary_values_from_faces(geo.topology, geo.boundary_data)
    try:
        if key in ("mode", "mu", "chi"):
            MixedSystem(geo.topology, bvals, **{key: value})
        elif key == "coarse_levels":
            monkeypatch.setattr(eggmix.solver, "MixedSystem", refuse_build)
            with pytest.raises(Built):
                build_system_hierarchy(geo.topology, bvals, value)
        else:
            SolverConfig(**{key: value})
    except InputError as exc:
        assert key in str(exc)
        return False
    return True


def flag_accepts(key, value, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(eggmix.io_cli, "build_system_hierarchy", refuse_build)
    # FLAG=VALUE, so that a negative value is not read as a flag
    argv = ["solve", str(bundled_path("square")), f"{FLAGS[key]}={value}",
            "--out", str(tmp_path / "square.solution.json")]
    try:
        assert main(argv) == 1
    except Built:
        return True
    assert FLAGS[key] in capsys.readouterr().err
    return False


@pytest.mark.parametrize("key, value, accepted", [
    pytest.param(key, value, accepted, id=f"{key}={value!r}")
    for key, cases in CASES.items() for value, accepted in cases])
def test_setting_accepted_alike_on_every_way_in(key, value, accepted, tmp_path,
                                                monkeypatch, capsys):
    assert file_accepts(key, value) == accepted
    assert library_accepts(key, value, monkeypatch) == accepted
    if key in FLAGS:
        assert flag_accepts(key, value, tmp_path, monkeypatch, capsys) == accepted
