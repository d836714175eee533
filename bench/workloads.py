"""
Seeded inputs, operations and output checks for the four benchmark workloads.

Every workload has the same shape:

- ``setup(workdir)`` generates the seeded inputs, builds what it needs from
  the fixtures and writes the bundle files into ``workdir``;
- ``validate()`` asserts that every input meant to be valid is valid, since
  ``verify`` on an invalid input would quietly measure an early exit at the
  first failing arity; ``validations()`` lists its steps, one per bundle,
  for the caller to time;
- ``reference()`` loads or computes what the outputs are checked against,
  outside any timing;
- ``ops()`` lists the operations of one pass as ``(label, call)`` pairs; the
  caller times each ``call()`` and hands its result to ``check``, which
  returns None when the output is right and a one-line reason otherwise.

linfty functions are looked up through their modules at call time, never
bound by name here, so that the traced run sees every call the benchmark
makes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import random
from pathlib import Path

import linfty.cli
import linfty.fixtures
import linfty.jsonio
import linfty.oracle
import linfty.structures
from linfty.gfa import GradedSpace, SymMultiMap
from linfty.jsonio import Bundle
from linfty.structures import LinfAlgebra, LinfModule, LinfMorphism, ModuleMorphism

N = 6  # truncation arity of every generated structure, and the verify bound
EXPECTED_PATH = Path(__file__).with_name("expected.json")

KIND_OF = {LinfAlgebra: "jacobi", LinfMorphism: "morphism",
           LinfModule: "module", ModuleMorphism: "module_morphism"}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def map_digest(m: SymMultiMap) -> str:
    """Digest of a map's arity, shift and canonical table."""
    return sha(repr((m.arity, m.shift, m.entries())))


def random_map(rng: random.Random, arity: int, shift: int, sym: GradedSpace,
               cod: GradedSpace, last: GradedSpace | None = None,
               fill: float = 0.3, last_degrees=None) -> SymMultiMap:
    """Random nonzero outputs on exactly a ``fill`` share (rounded) of the
    canonical keys whose output degree exists in the codomain.  A fixed
    share, rather than a coin per key, keeps the work of a residual steady
    from seed to seed.  ``last_degrees`` restricts the module slot to basis
    elements of those degrees."""
    n_sym = arity - 1 if last is not None else arity
    tails = [()]
    if last is not None:
        tails = [(b,) for b in last.basis() if last_degrees is None or b[0] in last_degrees]
    keys = []
    for skey in itertools.combinations_with_replacement(sym.basis(), n_sym):
        for tail in tails:
            key = skey + tail
            dim = cod.dim(sum(d for d, _ in key) + shift)
            if dim:
                keys.append((key, dim))
    chosen = rng.sample(keys, round(fill * len(keys)))
    entries = [(key, rng.randrange(1, 1 << dim)) for key, dim in chosen]
    return SymMultiMap(arity, shift, sym, cod, entries, last_space=last)


def write_bundle(workdir: Path, name: str, bundle: Bundle) -> str:
    path = workdir / f"{name}.json"
    path.write_text(linfty.jsonio.serialize_bundle(bundle))
    return str(path)


def cli(argv) -> tuple:
    """Run the CLI in-process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = linfty.cli.main(argv)
    return code, out.getvalue()


def assert_valid(what: str, bundle: Bundle) -> None:
    """Raise unless every structure of the bundle holds its relations up to N."""
    for name, st in bundle.structures.items():
        failure = linfty.structures.first_failure(st, N)
        if failure is not None:
            raise AssertionError(f"{what}/{name} is meant to be valid but fails at arity {failure[0]}")


def load_expected(workload: str, seed: int) -> dict:
    """Output digests recorded at the commit that defined the benchmark
    (see record_expected.py); empty for a seed outside the recorded range."""
    doc = json.loads(EXPECTED_PATH.read_text()) if EXPECTED_PATH.exists() else {}
    return dict(doc.get(workload, {}).get(str(seed), {}))


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.valid: list = []     # (label, bundle) pairs meant to be valid
        self.expected: dict = {}  # op label -> output digest

    def setup(self, workdir: Path) -> None:
        raise NotImplementedError

    def ops(self) -> list:
        raise NotImplementedError

    def check(self, label: str, result) -> str | None:
        raise NotImplementedError

    def validations(self) -> list:
        return [(what, lambda w=what, b=bundle: assert_valid(w, b)) for what, bundle in self.valid]

    def validate(self) -> None:
        for _, call in self.validations():
            call()

    def reference(self) -> None:
        self.expected = load_expected(self.name, self.seed)

    def digest_check(self, label: str, got: str) -> str | None:
        # A seed without recorded digests still requires every pass to agree
        # with the first one.
        want = self.expected.setdefault(label, got)
        return None if got == want else f"{label}: output digest {got} != expected {want}"


# ---------------------------------------------------------------------------
# residual-dense
# ---------------------------------------------------------------------------

ALG_DIMS = {-1: 2, 0: 3, 1: 2}
MOD_DIMS = {-1: 2, 0: 2, 1: 2}
NAIVE_UP_TO = 4  # naive_residual is affordable up to this arity


def dense_structures(seed: int) -> dict:
    """One dense random structure of each kind, operations at every arity up
    to N on a 0.3 share of the keys; none need be valid."""
    rng = random.Random(seed)
    V, M = GradedSpace(ALG_DIMS), GradedSpace(MOD_DIMS)

    def algebra():
        return LinfAlgebra.build(V, N, {k: random_map(rng, k, k - 2, V, V) for k in range(1, N + 1)})

    def module(alg):
        return LinfModule.build(alg, M, N, {k: random_map(rng, k, k - 2, V, M, last=M)
                                            for k in range(1, N + 1)})

    source, target = algebra(), algebra()
    mor = LinfMorphism.build(source, target, N, {k: random_map(rng, k, k - 1, V, V)
                                                 for k in range(1, N + 1)})
    mod, mod2 = module(source), module(source)
    modhom = ModuleMorphism.build(mod, mod2, N, {k: random_map(rng, k, k - 1, V, M, last=M)
                                                 for k in range(1, N + 1)})
    return {"jacobi": source, "morphism": mor, "module": mod, "module_morphism": modhom}


class ResidualDense(Workload):
    """Library calls residual(structure, n) for all four kinds at n = 1..6."""

    name = "residual-dense"

    def setup(self, workdir: Path) -> None:
        self.structures = dense_structures(self.seed)

    def reference(self) -> None:
        # Recorded digests were checked against naive_residual up to
        # NAIVE_UP_TO when they were recorded; other seeds compute it here.
        super().reference()
        for label, st, kind, n in self.cases():
            if n <= NAIVE_UP_TO and label not in self.expected:
                self.expected[label] = map_digest(linfty.oracle.naive_residual(st, kind, n))

    def cases(self):
        return [(f"{kind}/n{n}", st, kind, n)
                for kind, st in self.structures.items() for n in range(1, N + 1)]

    def ops(self):
        return [(label, lambda st=st, n=n: linfty.structures.residual(st, n))
                for label, st, _, n in self.cases()]

    def check(self, label: str, result) -> str | None:
        return self.digest_check(label, map_digest(result))


# ---------------------------------------------------------------------------
# verify-valid
# ---------------------------------------------------------------------------

HEISENBERG_KS = (1, 2, 3, 4, 5, 6)
GAPPED_SHAPES = ((3, 2, 2), (2, 3, 3), (4, 2, 2))  # (algebra dim, module dims in degrees 0, 1)


def heisenberg_bundle(rng: random.Random, k: int) -> Bundle:
    """h_{2k+1} in degree 0 with a seeded basis order, its adjoint module,
    the inclusion of a seeded abelian (Lagrangian plus centre) subalgebra,
    and the identity module morphism of the adjoint module."""
    dim = 2 * k + 1
    order = list(range(dim))
    rng.shuffle(order)
    xs = [(0, order[i]) for i in range(k)]
    ys = [(0, order[k + i]) for i in range(k)]
    zbit = 1 << order[2 * k]
    L = GradedSpace({0: dim})
    heis = LinfAlgebra.build(L, N, {2: SymMultiMap(
        2, 0, L, L, [(tuple(sorted(p)), zbit) for p in zip(xs, ys)])})
    action = [(p, zbit) for x, y in zip(xs, ys) for p in ((x, y), (y, x))]
    adjoint = LinfModule.build(heis, L, N, {2: SymMultiMap(2, 0, L, L, action, last_space=L)})
    S = GradedSpace({0: k + 1})
    lagrangian = [rng.choice(p) for p in zip(xs, ys)] + [(0, order[2 * k])]
    sub = LinfAlgebra.build(S, N, {})
    incl = LinfMorphism.build(sub, heis, N, {1: SymMultiMap(
        1, 0, S, L, [(((0, j),), 1 << b[1]) for j, b in enumerate(lagrangian)])})
    return Bundle({"L": L, "S": S}, {
        "heisenberg": heis, "subalgebra": sub, "inclusion": incl, "adjoint": adjoint,
        "adjoint_identity": linfty.structures.identity_morphism(adjoint)})


def gapped_module_bundle(rng: random.Random, a: int, m0: int, m1: int) -> Bundle:
    """A module on degrees {0, 1} over an abelian algebra in degree -1 with
    random operations at every arity.  Each operation lowers the module
    degree by one, so every composite of two lands in degree -1, where the
    module is zero: the module is valid at every arity for degree reasons."""
    A, M = GradedSpace({-1: a}), GradedSpace({0: m0, 1: m1})
    alg = LinfAlgebra.build(A, N, {})
    mod = LinfModule.build(alg, M, N, {k: random_map(rng, k, k - 2, A, M, last=M, fill=0.5)
                                       for k in range(1, N + 1)})
    return Bundle({"A": A, "M": M}, {"abelian": alg, "gapped": mod})


class VerifyValid(Workload):
    """In-process ``linfty verify <bundle> --max-arity 6`` on valid bundles."""

    name = "verify-valid"

    def setup(self, workdir: Path) -> None:
        rng = random.Random(self.seed)
        bundles = {f"heisenberg-{2 * k + 1}": heisenberg_bundle(rng, k) for k in HEISENBERG_KS}
        for i, shape in enumerate(GAPPED_SHAPES):
            bundles[f"gapped-{i}"] = gapped_module_bundle(rng, *shape)
        for name in sorted(linfty.fixtures.FIXTURES):
            bundles[f"fixture-{name}"] = linfty.fixtures.build(name)
        self.valid = list(bundles.items())
        self.paths = {name: write_bundle(workdir, name, b) for name, b in bundles.items()}
        self.counts = {name: len(b.structures) for name, b in bundles.items()}

    def ops(self):
        # --max-arity is explicit so that a change of the default bound does
        # not change the work measured.
        return [(name, lambda p=path: cli(["verify", p, "--max-arity", str(N)]))
                for name, path in self.paths.items()]

    def check(self, label: str, result) -> str | None:
        code, out = result
        lines = out.splitlines()
        if code != 0:
            return f"{label}: exit code {code}"
        if len(lines) != self.counts[label] or not all(line.startswith("ok ") for line in lines):
            return f"{label}: expected {self.counts[label]} ok lines, got {lines!r}"
        return None


# ---------------------------------------------------------------------------
# restrict-chain
# ---------------------------------------------------------------------------

CHAINS = 2
CHAIN_SHAPE = (3, 2, (2, 2))  # (dim L', dim L, dims of A in degrees 0 and 1)


def chain_bundles(rng: random.Random, src_dim: int, tgt_dim: int, a_dims) -> tuple:
    """A restriction chain valid by construction, as three bundles: the
    morphism file, the module file and the module morphism file.

    - I: L' -> L between abelian algebras in degree -1, random at every
      arity; the morphism relation between abelian algebras is vacuous.
    - A: a degree-gapped module over L (see gapped_module_bundle).
    - f: A -> B and g: B -> C, where B and C have zero operations and f and
      g only have entries whose module input has degree 1; every composite
      in the module morphism relation then vanishes.
    """
    Lp, L = GradedSpace({-1: src_dim}), GradedSpace({-1: tgt_dim})
    src, tgt = LinfAlgebra.build(Lp, N, {}), LinfAlgebra.build(L, N, {})
    I = LinfMorphism.build(src, tgt, N, {k: random_map(rng, k, k - 1, Lp, L) for k in range(1, N + 1)})
    # distinct space shapes keep A, B and C distinguishable by value
    MA = GradedSpace({0: a_dims[0], 1: a_dims[1]})
    MB = GradedSpace({0: a_dims[0] + 1, 1: a_dims[1]})
    MC = GradedSpace({0: a_dims[0], 1: a_dims[1] + 1})
    A = LinfModule.build(tgt, MA, N, {k: random_map(rng, k, k - 2, L, MA, last=MA)
                                      for k in range(1, N + 1)})
    B, C = LinfModule.build(tgt, MB, N, {}), LinfModule.build(tgt, MC, N, {})

    def degree_one_hom(source, target):
        return ModuleMorphism.build(source, target, N, {
            k: random_map(rng, k, k - 1, L, target.space, last=source.space, last_degrees=(1,))
            for k in range(1, N + 1)})

    f, g = degree_one_hom(A, B), degree_one_hom(B, C)
    return (Bundle({"Lp": Lp, "L": L}, {"source": src, "target": tgt, "I": I}),
            Bundle({"L": L, "MA": MA}, {"target": tgt, "A": A}),
            Bundle({"L": L, "MA": MA, "MB": MB, "MC": MC},
                   {"target": tgt, "A": A, "B": B, "C": C, "f": f, "g": g}))


class RestrictChain(Workload):
    """Per chain, three in-process CLI commands: ``restrict`` (verifying) of
    A alone, ``restrict`` of A with ``--also-morphism`` for f and g, and
    ``compose`` of the restricted f and g.  The module-only restriction sits
    between the other two in cost, so the median operation is a restriction,
    whose cost varies little from seed to seed, rather than the boundary
    between two compositions of seed-dependent size."""

    name = "restrict-chain"

    def setup(self, workdir: Path) -> None:
        rng = random.Random(self.seed)
        self.chains, self.valid = [], []
        for i in range(CHAINS):
            mor, mod, homs = chain_bundles(rng, *CHAIN_SHAPE)
            self.valid += [(f"chain-{i}/morphism", mor), (f"chain-{i}/homs", homs)]
            self.chains.append({
                "morphism": write_bundle(workdir, f"chain-{i}-morphism", mor),
                "module": write_bundle(workdir, f"chain-{i}-module", mod),
                "homs": write_bundle(workdir, f"chain-{i}-homs", homs),
                "restricted-module": str(workdir / f"chain-{i}-restricted-module.json"),
                "restricted": str(workdir / f"chain-{i}-restricted.json"),
                "composed-restricted": str(workdir / f"chain-{i}-composed-restricted.json"),
            })

    def ops(self):
        out = []
        for i, c in enumerate(self.chains):
            restrict = ["restrict", "--morphism", c["morphism"], "--module", c["module"],
                        "--module-name", "A"]
            commands = {
                "restricted-module": restrict + ["-o", c["restricted-module"]],
                "restricted": restrict + ["--also-morphism", c["homs"], "-o", c["restricted"]],
                "composed-restricted": ["compose", c["restricted"], "--f", "f_restricted",
                                        "--g", "g_restricted", "-o", c["composed-restricted"]],
            }
            for what, argv in commands.items():
                out.append((f"chain-{i}/{what}", lambda a=argv, o=c[what]: (cli(a), o)))
        return out

    def check(self, label: str, result) -> str | None:
        (code, _), path = result
        if code != 0:
            return f"{label}: exit code {code}"
        text = Path(path).read_text()
        if "/restricted" in label and json.loads(text)["provenance"].get("verified") is not True:
            return f"{label}: provenance does not say verified"
        return self.digest_check(label, sha(text))


# ---------------------------------------------------------------------------
# mutation-sweep
# ---------------------------------------------------------------------------

CERTIFY_UP_TO = 5  # oracle certification arity; the fast path checks up to N

# The equivalent mutants of the sweep, as in the acceptance suite
# (tests/test_acceptance.py, EXPECTED_EQUIVALENT).
_HEISENBERG_SURVIVORS = {
    ("heisenberg", 2, ((0, 0), (0, 1)), 2),
    ("adjoint", 2, ((0, 0), (0, 1)), 1),
    ("adjoint", 2, ((0, 0), (0, 1)), 2),
    ("adjoint", 2, ((0, 1), (0, 0)), 0),
    ("adjoint", 2, ((0, 1), (0, 0)), 2),
}
EXPECTED_EQUIVALENT = {
    "heisenberg-adjoint": _HEISENBERG_SURVIVORS,
    "truncated-l3": {("truncated", 3, ((0, 0), (0, 0), (0, 1)), 0)},
    "abelian-i2": set(),
    "lie-corollary": _HEISENBERG_SURVIVORS,
    "functoriality-chain": set(),
}


def single_bit_mutants(doc: dict):
    """(key, mutated document text) for every stored output bit of every
    algebra and module operation in the bundle document."""
    for sname, sdoc in doc["structures"].items():
        if sdoc["kind"] not in ("algebra", "module"):
            continue
        cod_dims = doc["spaces"][sdoc["space"]]["dims"]
        for k, mdoc in sdoc.get("ops", {}).items():
            for ei, ent in enumerate(mdoc["entries"]):
                out_deg = sum(d for d, _ in ent["in"]) + mdoc["shift"]
                for bit in range(cod_dims.get(str(out_deg), 0)):
                    mut = json.loads(json.dumps(doc))
                    outs = mut["structures"][sname]["ops"][k]["entries"][ei]["out"]
                    if [out_deg, bit] in outs:
                        outs.remove([out_deg, bit])
                    else:
                        outs.append([out_deg, bit])
                    key = (sname, int(k), tuple(tuple(b) for b in ent["in"]), bit)
                    yield key, json.dumps(mut)


def sweep_mutant(text: str) -> tuple:
    """Parse one mutant and run the fast path up to N; certify a survivor
    with the oracle.  Returns (killed, certified)."""
    structures = linfty.jsonio.parse_bundle(text).structures.values()
    if any(linfty.structures.first_failure(st, N) is not None for st in structures):
        return True, False
    certified = all(linfty.oracle.naive_residual(st, KIND_OF[type(st)], n).is_zero
                    for st in structures for n in range(1, CERTIFY_UP_TO + 1))
    return False, certified


class MutationSweep(Workload):
    """The single-bit mutation sweep over the five fixtures, in seeded order."""

    name = "mutation-sweep"

    def setup(self, workdir: Path) -> None:
        self.mutants, self.survivor, self.valid = [], {}, []
        for name in sorted(linfty.fixtures.FIXTURES):
            bundle = linfty.fixtures.build(name)
            self.valid.append((name, bundle))
            text = Path(write_bundle(workdir, name, bundle)).read_text()
            for key, mut in single_bit_mutants(json.loads(text)):
                label = f"{name}/{key}"
                self.mutants.append((label, mut))
                self.survivor[label] = key in EXPECTED_EQUIVALENT[name]
        random.Random(self.seed).shuffle(self.mutants)

    def ops(self):
        return [(label, lambda t=text: sweep_mutant(t)) for label, text in self.mutants]

    def check(self, label: str, result) -> str | None:
        killed, certified = result
        survivor = self.survivor[label]
        if killed == survivor:
            return f"{label}: killed={killed}, expected survivor={survivor}"
        if survivor and not certified:
            return f"{label}: the checker missed an invalid mutant"
        return None


WORKLOADS = {w.name: w for w in (ResidualDense, VerifyValid, RestrictChain, MutationSweep)}
