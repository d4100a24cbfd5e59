"""The benchmark reaches into plabel by name: its tracer wraps the functions
listed in perfbench.tracing.TRACED, and its props workload records the
labellings of the functions in perfbench.workloads.Context.LABELLERS. A
rename in the package would otherwise break only a traced benchmark run."""

import importlib

import pytest

from perfbench.tracing import TRACED, TRACED_METHODS
from perfbench.workloads import Context


@pytest.mark.parametrize("layer", sorted(TRACED))
def test_traced_names_resolve(layer):
    module = importlib.import_module(f"plabel.{layer}")
    assert [name for name in TRACED[layer] if not callable(getattr(module, name, None))] == []


def test_traced_methods_resolve():
    for layer, cls_name, method in TRACED_METHODS:
        cls = getattr(importlib.import_module(f"plabel.{layer}"), cls_name)
        assert callable(cls.__dict__.get(method))


def test_captured_labellers_resolve():
    module = importlib.import_module("plabel.constructive")
    assert [n for n in Context.LABELLERS if not callable(getattr(module, n, None))] == []


def test_props_draws_and_checks_through_the_traced_names(monkeypatch):
    # the tracer times harness.draw_lists_s and labelling.list_checks_s by
    # wrapping these module attributes; a call that bypasses them reads 0
    from plabel import constructive, harness

    calls = {"draw": 0, "check": 0}

    def counting(key, original):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(harness, "random_k_assignment",
                        counting("draw", harness.random_k_assignment))
    monkeypatch.setattr(constructive, "check_lists",
                        counting("check", constructive.check_lists))
    spec = harness.ExperimentSpec(family="tree", sizes=(5,), p_values=(2,), trials=2)
    assert harness.run_property_suite(spec).ok
    assert calls == {"draw": 2, "check": 2}


def test_span_refutation_passes_through_the_traced_solve_list(monkeypatch):
    # the tracer derives solvers.solve_calls, solvers.refutations and
    # solvers.refute_s from solve_list spans, so a root refutation by
    # solve_span must still go through that module attribute
    from plabel import solvers
    from plabel.graphs import make_star

    original, calls = solvers.solve_list, []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(solvers, "solve_list", counting)
    result = solvers.solve_span(make_star(5), 2, 5)  # below the bound Delta+p-1 = 6
    assert not result.labelled and result.nodes == 0
    assert len(calls) == 1
