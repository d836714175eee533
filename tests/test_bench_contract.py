"""The benchmark's contract with the program, checked in the regular suite.

bench/run.py looks linfty names up at run time, wraps the functions listed
in bench/tracing.py, checks outputs against digests recorded in
bench/expected.json, and checks that its traced pass finds the predicted
dominant layer.  A change that removes such a name, changes the bytes of a
recorded output or moves the dominant layer breaks the benchmark; these
tests catch it here first.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import pytest  # noqa: E402

import linfty.cli  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DIGESTED = ("residual-dense", "restrict-chain")  # workloads with recorded output digests


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_one_pass_passes_every_check(name, tmp_path):
    workload = workloads.WORKLOADS[name](0)
    workload.setup(tmp_path)
    workload.validate()
    workload.reference()
    ops = workload.ops()
    if name in DIGESTED:
        # every output is compared with a recorded digest, not only with
        # the first pass
        assert set(workload.expected) == {label for label, _ in ops}
    failures = [workload.check(label, call()) for label, call in ops]
    assert [f for f in failures if f is not None] == []


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_pass_confirms_the_predicted_layer(name, tmp_path, monkeypatch):
    # a change that moves time between layers fails the benchmark's traced
    # run, so it fails here.  Layer self times from bench/run.py --trace 1
    # at seeds 0-15 on a 2-vCPU VM: residual-dense is the workload a kernel
    # change moves most (structures 0.056-0.12 s against gfa 0.010-0.015 s);
    # restrict-chain has restrict's self time, which holds the unspanned
    # pullback (run once per module and context, on the keys a stored entry
    # can reach), at 0.025-0.057 s against structures 0.012-0.021 s;
    # verify-valid has a margin of 1.5-2.1x (structures 0.013-0.020 s
    # against jsonio 0.007-0.010 s, cli just behind it); mutation-sweep,
    # since the oracle skips summands holding a zero map, only 1.2-1.7x
    # (oracle 0.024-0.035 s against jsonio 0.018-0.024 s), so a slower
    # parser can move it
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    _, failures, _, details = run.traced(workloads.WORKLOADS[name](3), tmp_path)
    assert failures == [], details["layer_self_s"]


def test_tracer_installs_and_leaves_nothing_behind(monkeypatch):
    with tracing.Tracer().installed():
        assert tracing.wrapped_names()
    assert tracing.wrapped_names() == []
    monkeypatch.delenv("LINFTY_THREADS", raising=False)
    assert isinstance(linfty.cli._thread_cap(), int)
