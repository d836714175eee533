"""A deterministic fuzz test of the command line.

Each case takes a fixture document, makes one to three random edits biased
toward well-formed but extreme values (large dimensions, basis indices at
and past the format's limit, large arities), and runs one command on it.
Whatever the input, the command must exit 0, 1 or 2 without an exception,
an exit 2 must print exactly one ``error: `` line, and every document that
parses must round-trip through serialize_bundle.
"""

import copy
import json
import random

import pytest

from linfty import fixtures
from linfty.cli import main
from linfty.jsonio import MAX_INDEX, FormatError, parse_bundle, serialize_bundle

SEED = 12
CASES = 300

# fixture -> the command lines that apply to it, the bundle's path as {p}
COMMANDS = {
    "heisenberg-adjoint": [["restrict", "--morphism", "{p}", "--module", "{p}",
                            "--morphism-name", "inclusion", "--module-name", "adjoint"]],
    "truncated-l3": [],
    "abelian-i2": [["restrict", "--morphism", "{p}", "--module", "{p}"]],
    "lie-corollary": [["restrict", "--morphism", "{p}", "--module", "{p}",
                       "--morphism-name", "inclusion", "--module-name", "adjoint"]],
    "functoriality-chain": [["restrict", "--morphism", "{p}", "--module", "{p}",
                             "--module-name", "A", "--also-morphism", "{p}"],
                            ["compose", "{p}", "--f", "f", "--g", "g"]],
}
VERIFY = [["verify", "{p}"], ["verify", "{p}", "--max-arity", "3"]]

DIMENSIONS = [0, 1, 3, MAX_INDEX, 10**6, 10**12, 10**30]
INDICES = [0, 1, 2, MAX_INDEX - 1, MAX_INDEX, 10**12, -1]
ARITIES = [1, 2, 3, 7, 10**6, 10**30, 0]
VALUES = [None, True, False, 0, 1, -1, 10**6, 10**30, -10**30, 1.5, "", "0", "L",
          [], [0], [[0, 0]], {}, {"0": 1}]


def _slots(node, out):
    """Every (container, key) below node, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in list(items):
        out.append((node, key))
        if isinstance(value, (dict, list)):
            _slots(value, out)
    return out


def _pairs(doc):
    """Every [degree, index] list of an entry's "in" or "out"."""
    return [pair for container, key in _slots(doc, [])
            if key in ("in", "out") and isinstance(container[key], list)
            for pair in container[key] if isinstance(pair, list) and len(pair) == 2]


def _edit(rng, doc):
    """One random edit of doc in place, described as a string."""
    kind = rng.choice(["dimension"] * 3 + ["widen"] * 2 + ["index"] * 2 + ["arity"] * 2
                      + ["replace", "delete", "duplicate", "nudge"])
    slots = _slots(doc, [])
    if not slots:
        return "nothing left to edit"
    dims = [c[k] for c, k in slots if k == "dims" and isinstance(c[k], dict) and c[k]]
    if kind == "dimension" and dims:
        d = rng.choice(dims)
        degree = rng.choice(sorted(d))
        d[degree] = rng.choice(DIMENSIONS)
        return f"dims[{degree}] = {d[degree]}"
    if kind == "widen" and dims:
        d, dim = rng.choice(dims), rng.choice(DIMENSIONS[3:])
        d.update(dict.fromkeys(d, dim))
        return f"every dimension of a space = {dim}"
    if kind == "index":
        pairs = _pairs(doc)
        if pairs:
            wide = rng.random() < 0.5  # every space wide enough for any index
            for d in dims if wide else ():
                d.update(dict.fromkeys(d, 10**12))
            pair = rng.choice(pairs)
            pair[1] = rng.choice(INDICES)
            return f"index = {pair[1]}" + " in spaces of dimension 10**12" * wide
    if kind == "arity":
        maps = [c for c, k in slots if k == "arity" and isinstance(c, dict)]
        owners = [c for c, k in slots if k == "max_arity"]
        if maps and rng.random() < 0.25:
            m = rng.choice(maps)
            m["arity"] = rng.choice(ARITIES)
            return f"arity = {m['arity']}"
        if owners:
            s = rng.choice(owners)
            s["max_arity"] = rng.choice(ARITIES)
            return f"max_arity = {s['max_arity']}"
    if kind == "delete":
        container, key = rng.choice([(c, k) for c, k in slots if isinstance(c, dict)])
        del container[key]
        return f"delete {key!r}"
    if kind == "duplicate":
        lists = [c[k] for c, k in slots if isinstance(c[k], list) and c[k]]
        if lists:
            items = rng.choice(lists)
            items.append(copy.deepcopy(rng.choice(items)))
            return "duplicate a list item"
    if kind == "nudge":
        ints = [(c, k) for c, k in slots if type(c[k]) is int]
        if ints:
            container, key = rng.choice(ints)
            container[key] += rng.choice((-1, 1))
            return f"nudge {key!r} to {container[key]}"
    container, key = rng.choice(slots)
    container[key] = copy.deepcopy(rng.choice(VALUES))
    return f"{key!r} = {container[key]!r}"


def test_cli_fuzz(tmp_path, capsys):
    docs = {name: json.loads(serialize_bundle(fixtures.build(name))) for name in fixtures.FIXTURES}
    rng = random.Random(SEED)
    path, out = tmp_path / "case.json", str(tmp_path / "out.json")
    codes, parsed = {0: 0, 1: 0, 2: 0}, 0
    for case in range(CASES):
        name = rng.choice(sorted(docs))
        doc = copy.deepcopy(docs[name])
        edits = [_edit(rng, doc) for _ in range(rng.choice((1, 1, 2, 3)))]
        text = json.dumps(doc)
        what = f"case {case} ({name}: {'; '.join(edits)})"
        try:
            bundle = parse_bundle(text)
        except FormatError:
            pass
        else:
            parsed += 1
            assert parse_bundle(serialize_bundle(bundle)) == bundle, what
        argv = [a.replace("{p}", str(path)) for a in rng.choice(VERIFY + COMMANDS[name])]
        if argv[0] != "verify":
            argv += ["-o", out]
        path.write_text(text)
        try:
            code = main(argv)
        except Exception as exc:  # any exception is a failure of the contract
            pytest.fail(f"{what}: {argv[0]} raised {exc!r}")
        err = capsys.readouterr().err
        assert code in codes, what
        codes[code] += 1
        if code == 2:
            assert [line.startswith("error: ") for line in err.splitlines()].count(True) == 1, \
                f"{what}: {err!r}"
    # the edits reach the kernels, not the parser alone
    assert codes[0] > CASES // 5 and codes[2] < CASES * 3 // 4 and parsed > CASES // 5
