"""One tolerance per job: module constants, and a `tol` parameter only where
the command line sets it."""
import importlib
import inspect
import pkgutil

import fpres
from fpres import extend, modular, phases, validate
from fpres.currents import Theory
from fpres.errors import ResourceLimitError
from fpres.wzw import su2


def functions_taking_tol():
    """Qualified names of the functions and methods defined in fpres.* that
    take a parameter named `tol`."""
    found = []
    for info in pkgutil.iter_modules(fpres.__path__):
        mod = importlib.import_module(f"fpres.{info.name}")
        for name, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                funcs = [(name, obj)]
            elif inspect.isclass(obj):
                funcs = [(f"{name}.{n}", f) for n, f in vars(obj).items()
                         if inspect.isfunction(f)]
            else:
                continue
            found += [f"{info.name}.{n}" for n, f in funcs
                      if "tol" in inspect.signature(f).parameters]
    return sorted(found)


def test_only_the_condition_checks_take_a_tolerance():
    assert functions_taking_tol() == ["validate.check_conditions",
                                      "validate.condition_report"]


def test_theory_has_no_tolerance():
    assert "tol" not in inspect.signature(Theory).parameters
    assert not hasattr(Theory(su2(4)), "tol")


def test_each_job_keeps_its_tolerance():
    assert modular.S_TOL == phases.SNAP_TOL == modular.FUSION_TOL == 1e-6
    assert modular.GATE_TOL == validate.CHECK_TOL == 1e-8
    assert modular.MODULAR_TOL == 1e-9
    assert extend.GRID_TOL == 1e-8 and extend.FINGERPRINT_TOL == 1e-6
    assert (inspect.signature(validate.condition_report).parameters["tol"]
            .default == validate.CHECK_TOL)


def test_one_dense_budget(monkeypatch):
    for info in pkgutil.iter_modules(fpres.__path__):
        mod = importlib.import_module(f"fpres.{info.name}")
        for gone in ("DENSE_LIMIT", "FUSION_DENSE_LIMIT", "SUN_FIELD_LIMIT"):
            assert not hasattr(mod, gone), (info.name, gone)
    assert list(inspect.signature(modular.fusion_tensor).parameters) == ["md"]
    # the fusion tensor is admitted exactly where the fusion check scans in
    # full: N^3 <= budget, here N <= 4
    monkeypatch.setattr(modular, "DENSE_BUDGET", 4 ** 3)
    admitted, full = [], []
    for k in range(1, 7):
        md = su2(k)
        try:
            modular.fusion_tensor(md)
            admitted.append(md.size)
        except ResourceLimitError:
            pass
        if validate.check_fusion_integrality(md)["mode"] == "full":
            full.append(md.size)
    assert admitted == full == [2, 3, 4]
