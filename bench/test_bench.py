"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

import linfty  # noqa: E402
import linfty.perm  # noqa: E402
import linfty.structures  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from linfty.gfa import GradedSpace  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_deterministic_per_seed(name, tmp_path):
    def files(seed, sub):
        w = workloads.WORKLOADS[name](seed)
        d = tmp_path / sub
        d.mkdir()
        w.setup(d)
        ops = [label for label, _ in w.ops()]
        inputs = {p.name: p.read_text() for p in sorted(d.iterdir())}
        return ops, inputs, getattr(w, "structures", None)

    first = files(3, "a")
    assert first == files(3, "b")
    if name != "mutation-sweep":  # the sweep's seed only orders the mutants
        assert first[1:] != files(4, "c")[1:]


def test_random_map_fills_a_fixed_share():
    import random

    V = GradedSpace(workloads.ALG_DIMS)
    sizes = {len(workloads.random_map(random.Random(s), 3, 1, V, V).entries()) for s in range(5)}
    assert len(sizes) == 1


def test_validation_rejects_an_invalid_bundle(tmp_path):
    w = workloads.VerifyValid(0)
    w.setup(tmp_path)
    w.validate()
    dense = workloads.dense_structures(0)["jacobi"]
    w.valid.append(("dense", linfty.jsonio.Bundle({"V": dense.space}, {"jacobi": dense})))
    with pytest.raises(AssertionError, match="meant to be valid"):
        w.validate()


def test_self_times_on_a_synthetic_span_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3];
    # d [6, 8] and e [7, 8.5] overlap inside b and are counted once.
    spans = [
        ["root", 0.0, 10.0, -1, None, {}],
        ["a", 1.0, 4.0, 0, None, {}],
        ["c", 2.0, 3.0, 1, None, {}],
        ["b", 5.0, 9.0, 0, None, {}],
        ["d", 6.0, 8.0, 3, None, {}],
        ["e", 7.0, 8.5, 3, None, {}],
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 2.0, 1.5])
    spans[3][5]["perm"] = 0.5
    assert tracing.self_times(spans)[3] == pytest.approx(1.0)
    assert tracing.self_times(spans, minus_counted=False)[3] == pytest.approx(1.5)
    # counted calls inside a span leave its self time for their own layer
    layers = tracing.layer_self_times(
        [["x.f", 0.0, 4.0, -1, None, {"perm": 0.5}],
         ["y.g", 1.0, 2.0, 0, None, {"perm": 0.25, "gfa": 0.25}]], wall=5.0)
    assert layers == pytest.approx({"x": 2.5, "y": 0.5, "perm": 0.75, "gfa": 0.25, "bench": 1.0})


def test_wrappers_are_removed_after_a_traced_run():
    originals = {
        "structures.apply": linfty.structures.apply,
        "structures.unshuffles": linfty.structures.unshuffles,
        "restrict.primed_unshuffles": linfty.restrict.primed_unshuffles,
        "package.residual": linfty.jacobi_residual,
        "eval": linfty.gfa.SymMultiMap.__dict__["eval"],
    }
    algebra = workloads.dense_structures(1)["jacobi"]
    tracer = tracing.Tracer()
    with tracer.installed():
        assert tracing.wrapped_names()
        # patched where it is called, not only where it is defined
        assert getattr(linfty.structures.apply, "bench_wrapped", False)
        assert getattr(linfty.restrict.primed_unshuffles, "bench_wrapped", False)
        linfty.structures.first_failure(algebra, 3)
    assert tracing.wrapped_names() == []
    assert linfty.structures.apply is originals["structures.apply"] is linfty.perm.apply
    assert linfty.structures.unshuffles is originals["structures.unshuffles"]
    assert linfty.restrict.primed_unshuffles is originals["restrict.primed_unshuffles"]
    assert linfty.jacobi_residual is originals["package.residual"]
    assert linfty.gfa.SymMultiMap.__dict__["eval"] is originals["eval"]

    names = [span[0] for span in tracer.spans]
    assert names[0] == "structures.first_failure"
    assert names.count("structures.jacobi_residual") >= 1
    # every residual span's parent is the first_failure span
    assert all(span[3] == 0 for span in tracer.spans[1:])
    assert tracer.counters["perm.apply"].calls > 0
    assert tracer.counters["gfa.eval"].calls > 0
    # counted time is charged to the span it ran in, and only once
    charged = sum(span[5].get("perm", 0.0) for span in tracer.spans)
    assert 0 < charged <= tracer.counters["perm.apply"].s + tracer.counters["perm.unshuffles"].s


def test_residual_keys_count_the_canonical_domain():
    dense = workloads.dense_structures(0)
    # V has dimension 7 and M dimension 6
    assert tracing.residual_keys(dense["jacobi"], 2) == 28
    assert tracing.residual_keys(dense["morphism"], 2) == 28
    assert tracing.residual_keys(dense["module"], 2) == 7 * 6
    assert tracing.residual_keys(dense["module_morphism"], 3) == 28 * 6


def test_tail_is_taken_over_per_operation_medians():
    import run

    per_op = {"a": [1.0, 1.2, 0.9], "b": [2.0, 2.1], "c": [3.0, 9.0, 3.1], "d": [4.0, 4.0, 4.2]}
    # medians 1.0, 2.05, 3.1, 4.0: the p75 of four operations is the third
    assert run.tail(per_op) == (3.1, 3, 3)


def test_calibration_kernel_does_not_collect_the_live_heap():
    import gc

    import run

    heap = [(i, (i,)) for i in range(300_000)]  # tracked objects a collection would walk
    collections = []

    def record(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    gc.callbacks.append(record)
    try:
        for _ in range(5):
            run.calibration_kernel()
    finally:
        gc.callbacks.remove(record)
    assert len(heap) == 300_000
    assert collections == []
    assert gc.isenabled()


def test_times_scale_by_the_nearby_calibration_samples():
    import run

    timeline = run.Timeline()
    timeline.cals = [run.CAL_REFERENCE_S] * 4 + [2 * run.CAL_REFERENCE_S] * 8
    assert timeline.scale(0) == pytest.approx(1.0)
    assert timeline.scale(11) == pytest.approx(0.5)  # the machine ran at half speed there


def test_setup_parts_repeat_until_their_budget():
    import run

    timeline = run.Timeline()
    budget = run.SETUP_BUDGET_S
    long = run.repeated([lambda: budget / 2, lambda: budget / 4], timeline)
    assert (long["repeats"], long["raw_s"]) == (run.SETUP_MIN_REPEATS, pytest.approx(0.75 * budget))
    short = run.repeated([lambda: budget / 16], timeline)
    assert short["repeats"] == 16
    assert run.repeated([lambda: 0.0], timeline)["repeats"] == run.SETUP_MAX_REPEATS
    assert len(timeline.cals) == 2 * long["repeats"] + 16 + run.SETUP_MAX_REPEATS + 3


def test_timing_the_import_puts_the_loaded_modules_back():
    import run

    before = {n: m for n, m in sys.modules.items() if n.startswith("linfty")}
    assert run.import_seconds() > 0
    assert {n: m for n, m in sys.modules.items() if n.startswith("linfty")} == before
