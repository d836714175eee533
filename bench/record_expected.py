"""
Record the output digests that the benchmark checks seeded runs against.

    python3 bench/record_expected.py --first 0 --last 63 [residual-dense] [restrict-chain]

For each seed this runs the residual-dense and restrict-chain operations
once, requires every residual up to workloads.NAIVE_UP_TO to equal
naive_residual, and writes the digests to bench/expected.json.  Run it only
on a commit whose outputs are trusted: the benchmark treats the recorded
digests as correct.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import linfty.oracle  # noqa: E402
import linfty.structures  # noqa: E402
import workloads  # noqa: E402


def record_residual_dense(seed: int) -> dict:
    w = workloads.ResidualDense(seed)
    w.setup(Path("."))
    out = {}
    for label, st, kind, n in w.cases():
        got = workloads.map_digest(linfty.structures.residual(st, n))
        if n <= workloads.NAIVE_UP_TO:
            naive = workloads.map_digest(linfty.oracle.naive_residual(st, kind, n))
            if naive != got:
                raise SystemExit(f"seed {seed} {label}: residual differs from naive_residual")
        out[label] = got
    return out


def record_restrict_chain(seed: int, workdir: Path) -> dict:
    w = workloads.RestrictChain(seed)
    w.setup(workdir)
    w.validate()
    out = {}
    for label, call in w.ops():
        (code, _), path = call()
        if code != 0:
            raise SystemExit(f"seed {seed} {label}: exit code {code}")
        out[label] = workloads.sha(Path(path).read_text())
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--last", type=int, default=63)
    parser.add_argument("workloads", nargs="*", default=["residual-dense", "restrict-chain"],
                        choices=["residual-dense", "restrict-chain"])
    args = parser.parse_args()
    doc = json.loads(workloads.EXPECTED_PATH.read_text()) if workloads.EXPECTED_PATH.exists() else {}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=out_dir))
    try:
        for seed in range(args.first, args.last + 1):
            if "residual-dense" in args.workloads:
                doc.setdefault("residual-dense", {})[str(seed)] = record_residual_dense(seed)
            if "restrict-chain" in args.workloads:
                doc.setdefault("restrict-chain", {})[str(seed)] = record_restrict_chain(seed, workdir)
            print(f"seed {seed} recorded", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.EXPECTED_PATH.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
