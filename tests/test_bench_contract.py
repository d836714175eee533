"""The benchmark's contract with the program, checked in the regular suite.

bench/run.py looks linfty names up at run time, wraps the functions listed
in bench/tracing.py, and checks outputs against digests recorded in
bench/expected.json.  A change that removes such a name, or changes the bytes
of a recorded output, breaks the benchmark; these tests catch it here first.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import pytest  # noqa: E402

import linfty.cli  # noqa: E402
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


def test_tracer_installs_and_leaves_nothing_behind(monkeypatch):
    with tracing.Tracer().installed():
        assert tracing.wrapped_names()
    assert tracing.wrapped_names() == []
    monkeypatch.delenv("LINFTY_THREADS", raising=False)
    assert isinstance(linfty.cli._thread_cap(), int)
