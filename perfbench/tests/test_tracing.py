import math

import numpy as np
import pytest

import tracing
from tracing import SPAN_NAMES, TARGETS, Tracer, install, self_times, summarize


def test_self_times_on_synthetic_tree():
    # id, parent, name, request, start, end, hidden
    spans = [
        (2, 1, "leaf", "r", 2.0, 3.0, 0.5),
        (1, 0, "mid", "r", 1.0, 4.0, 0.0),
        (3, 0, "mid", "r", 5.0, 9.0, 0.0),
        (0, None, "root", "r", 0.0, 10.0, 0.0),
        (4, None, "root", "s", 20.0, 21.0, 0.0),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 3.0, 1: 1.5, 2: 1.0, 3: 4.0, 4: 1.0})
    summary = summarize(spans)
    assert summary["mid"] == pytest.approx({"self_s": 5.5, "total_s": 7.0, "calls": 2})
    assert summary["root"] == pytest.approx({"self_s": 4.0, "total_s": 11.0, "calls": 2})


def test_wrapped_calls_nest_and_self_times_add_up():
    tracer = Tracer()

    def inner(x):
        return sum(range(x))

    traced_inner = tracer.wrap("m.inner", inner)

    def outer(n):
        return [traced_inner(1000) for _ in range(n)]

    traced_outer = tracer.wrap("m.outer", outer)
    tracer.request = "req"
    traced_outer(3)
    root = [s for s in tracer.spans if s[1] is None]
    assert len(root) == 1 and root[0][2] == "m.outer"
    children = [s for s in tracer.spans if s[1] == root[0][0]]
    assert [s[2] for s in children] == ["m.inner"] * 3
    assert {s[3] for s in tracer.spans} == {"req"}
    total = root[0][5] - root[0][4]
    assert math.isclose(sum(self_times(tracer.spans).values()), total, rel_tol=1e-9)


@pytest.fixture
def installed():
    tracer = Tracer()
    restore, missing = install(tracer)
    try:
        yield tracer, missing
    finally:
        restore()


def _originals():
    out = {}
    for mod_name, qual in TARGETS:
        owner = tracing.envlab_modules()[f"envlab.{mod_name}"]
        for part in qual.split("."):
            owner = getattr(owner, part)
        out[f"{mod_name}.{qual}"] = owner
    return out


def test_every_reference_is_rebound(installed):
    tracer, missing = installed
    assert missing == []
    modules = tracing.envlab_modules()
    for name, wrapped in _originals().items():
        original = wrapped.__wrapped__
        assert wrapped.__name__ == original.__name__, name
        for mod_name, module in modules.items():
            for key, value in vars(module).items():
                assert value is not original, f"{mod_name}.{key} escapes the trace of {name}"
    # one `from .quadrature import ...` binding checked by identity
    assert modules["envlab.sections"].refine_breakpoints is modules["envlab.quadrature"].refine_breakpoints
    assert modules["envlab"].bergman is modules["envlab.sections"].bergman


def test_restore_puts_originals_back():
    before = _originals()
    tracer = Tracer()
    restore, _ = install(tracer)
    restore()
    assert _originals() == before
    assert not any(hasattr(fn, "__wrapped__") for fn in before.values())


def test_calls_through_from_imports_are_traced(installed):
    tracer, _ = installed
    import envlab.sections as sections
    from envlab.measures import fs_measure
    from envlab.profiles import WeightedSet, base_profile

    tracer.request = "norm"
    sections.log_norm2(2, 4, base_profile(1), WeightedSet.whole(), fs_measure())
    by_id = {s[0]: s for s in tracer.spans}
    refine = [s for s in tracer.spans if s[2] == "quadrature.refine_breakpoints"]
    assert len(refine) == 1
    chain = []
    parent = refine[0][1]
    while parent is not None:
        chain.append(by_id[parent][2])
        parent = by_id[parent][1]
    assert chain == ["quadrature.log_integral_exp", "sections.log_norm2"]
    assert tracer.counts["quadrature.refine_breakpoints.cells"] > 0
    assert tracer.counts["quadrature.gauss_cells.nodes"] > 0
    assert set(summarize(tracer.spans)) <= set(SPAN_NAMES)


def test_repeat_ratio_counts_identical_plans(installed):
    tracer, _ = installed
    import envlab.quadrature as quadrature

    bp = np.linspace(-1.0, 1.0, 5)
    for k in (4, 4, 9, 4):
        quadrature.refine_breakpoints(bp, k)
    assert tracer.counts["quadrature.refine_breakpoints.repeats"] == 2
