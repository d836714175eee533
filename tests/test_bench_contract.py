"""The benchmark's contract with the program, checked in the regular suite.

bench/run.py looks linfty names up at run time, wraps the functions listed
in bench/tracing.py, checks outputs against digests recorded in
bench/expected.json, and checks that its traced pass finds the predicted
dominant layer.  A change that removes such a name, changes the bytes of a
recorded output or moves the dominant layer breaks the benchmark; these
tests catch it here first.
"""

import gc
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(BENCH))

import pytest  # noqa: E402

import linfty.cli  # noqa: E402
from linfty import gfa  # noqa: E402
from linfty.gfa import SymMultiMap  # noqa: E402
from linfty.jsonio import parse_bundle  # noqa: E402
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


# every workload at seed 3, and at seed 11 the two whose margins over the
# runner-up were thinnest
@pytest.mark.parametrize("name, seed", [pytest.param(name, 3, id=name)
                                        for name in sorted(workloads.WORKLOADS)] + [
    pytest.param(name, 11, id=f"{name}-seed11") for name in ("verify-valid", "mutation-sweep")])
def test_traced_pass_confirms_the_predicted_layer(name, seed, tmp_path, monkeypatch):
    # a change that moves time between layers fails the benchmark's traced
    # run, so it fails here.  Layer self times from bench/run.py --trace 1,
    # two runs at each of seeds 0-15 on a 2-vCPU VM: residual-dense is the
    # workload a kernel change moves most (structures 0.013-0.028 s against
    # gfa 0.003-0.008 s, 3.1-5.0x); restrict-chain has restrict's self
    # time, which holds the unspanned pullback (run once per module and
    # context, on the keys a stored entry can reach), at 0.023-0.057 s
    # against jsonio 0.007-0.017 s (2.3-5.1x) and structures
    # 0.004-0.011 s; verify-valid, whose structures build one kernel plan
    # each, has a margin of only 1.05-1.43x over the larger of jsonio
    # (0.003-0.007 s) and cli (0.002-0.011 s), structures 0.004-0.014 s;
    # mutation-sweep, since the oracle skips summands holding a zero map,
    # 1.28-2.76x over the next layer (oracle 0.018-0.033 s against jsonio
    # 0.007-0.018 s), so a slower parser can move either
    monkeypatch.setattr(run, "ROOT", tmp_path)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    # the benchmark traces in a fresh process; here the objects the suite
    # has made so far are kept out of the collector, so that a full
    # collection of them (25 ms, seen landing in jsonio's self time at
    # seed 11) is not billed to whichever layer is running
    gc.freeze()
    try:
        _, failures, _, details = run.traced(workloads.WORKLOADS[name](seed), tmp_path)
    finally:
        gc.unfreeze()
    assert failures == [], details["layer_self_s"]


def test_tracer_installs_and_leaves_nothing_behind():
    with tracing.Tracer().installed():
        assert tracing.wrapped_names()
    assert tracing.wrapped_names() == []
    assert isinstance(linfty.cli._thread_cap(), int)


FRESH_IMPORT = """
import sys
sys.path[:0] = sys.argv[1:3]
import linfty.cli
loaded = sorted(n for n in sys.modules if n == "linfty" or n.startswith("linfty."))
hashlib = "hashlib" in sys.modules
import json
import tracing
for _ in range(2):  # as run.traced does: one tracer for set-up, one for the pass
    with tracing.Tracer().installed():
        pass
print(json.dumps({"loaded": loaded, "hashlib": hashlib, "left": tracing.wrapped_names()}))
"""


def test_a_fresh_interpreter_loads_the_command_path_alone_and_traces_cleanly():
    # This process imported every linfty module before any tracer.
    # bench/run.py traces in a fresh one, where Tracer.install makes the
    # first import of each module linfty.cli leaves out; a module whose
    # first import comes after structures is wrapped binds the wrappers by
    # name, and removing the tracer leaves them there.  -S keeps site and
    # its .pth files from importing anything first.
    src = BENCH.parent / "src"
    proc = subprocess.run([sys.executable, "-S", "-c", FRESH_IMPORT, str(src), str(BENCH)],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["left"] == []
    assert got["loaded"] == ["linfty"] + [
        f"linfty.{m}" for m in ("cli", "fixtures", "gfa", "jsonio", "restrict", "structures")]
    assert not got["hashlib"]


def test_verify_valid_parses_build_each_map_once(tmp_path, monkeypatch):
    # 20 parses of the 14 verify-valid bundles at seed 0 built 4340 maps
    # when build compared each parsed map with a second zero map, and 1395
    # when each of the 66 stored maps went through the map constructor once
    # per parse.  Their entries are canonical, so each is now stored as
    # read, and the constructor builds only each zero map, once per
    # signature: 75
    workload = workloads.WORKLOADS["verify-valid"](0)
    workload.setup(tmp_path)
    texts = [Path(p).read_text() for p in workload.paths.values()]
    assert len(texts) == 14
    built = []
    init = SymMultiMap.__init__

    def counted(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    gfa._zeros.clear()
    monkeypatch.setattr(SymMultiMap, "__init__", counted)
    for _ in range(20):
        for text in texts:
            parse_bundle(text)
    assert len(built) <= 75
