"""
The JSON structure-file format.

A bundle document holds named graded spaces and named structures with
cross-references by name:

    {
      "spaces": {"L": {"dims": {"0": 3}}},
      "structures": {
        "heis": {"kind": "algebra", "space": "L", "max_arity": 6,
                 "ops": {"2": {"arity": 2, "shift": 0,
                               "entries": [{"in": [[0,0],[0,1]], "out": [[0,2]]}]}}},
        "adj":  {"kind": "module", "algebra": "heis", "space": "L",
                 "max_arity": 6, "ops": {...}},
        "incl": {"kind": "morphism", "source": "sub", "target": "heis", ...},
        "f":    {"kind": "module_morphism", "source": "adj", "target": "adj2", ...}
      }
    }

A map is stored as {"arity": k, "shift": d, "entries": [{"in": [...], "out":
[...]}]} where "in" is the canonical multi-index (basis elements as [degree,
index]) and "out" lists the basis elements of the output, xor-summed.  Every
number is a JSON integer (not a float, string or bool); object keys are
strings holding integers.
Entries must be canonical; non-canonical input is accepted, canonicalized and
reported as a warning.  Serialization is canonical (sorted keys, sorted
entries, compact separators) so byte equality of serialized structures is
meaningful.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .gfa import GradedSpace, SymMultiMap
from .structures import LinfAlgebra, LinfModule, LinfMorphism, ModuleMorphism

__all__ = [
    "Bundle",
    "FormatError",
    "parse_bundle",
    "serialize_bundle",
    "merge_bundles",
    "digest",
]

Structure = object  # LinfAlgebra | LinfMorphism | LinfModule | ModuleMorphism


class FormatError(ValueError):
    """Malformed or unresolvable structure file."""


@dataclass
class Bundle:
    """Named spaces and structures parsed from one or more documents."""

    spaces: Dict[str, GradedSpace] = field(default_factory=dict)
    structures: Dict[str, Structure] = field(default_factory=dict)
    provenance: Optional[dict] = None
    warnings: List[str] = field(default_factory=list)

    def of_kind(self, cls) -> Dict[str, Structure]:
        return {k: v for k, v in self.structures.items() if isinstance(v, cls)}

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, Bundle)
                and self.spaces == other.spaces
                and self.structures == other.structures)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _integers(values) -> bool:
    """Whether every value is a JSON integer (bool is an int subclass)."""
    return set(map(type, values)) <= {int}


def _parse_space(name: str, doc: dict) -> GradedSpace:
    if not isinstance(doc, dict) or "dims" not in doc:
        raise FormatError(f"space {name!r}: expected an object with a 'dims' field")
    try:
        dims = {int(d): m for d, m in doc["dims"].items()}
    except (TypeError, ValueError, AttributeError):
        raise FormatError(f"space {name!r}: malformed dims") from None
    if not _integers(dims.values()):
        raise FormatError(f"space {name!r}: every dimension must be an integer")
    if any(m < 0 for m in dims.values()):
        raise FormatError(f"space {name!r}: negative dimension")
    return GradedSpace(dims)


def _parse_map(where: str, doc: dict, arity: int, shift: int,
               sym: GradedSpace, last: Optional[GradedSpace], cod: GradedSpace,
               warnings: List[str]) -> SymMultiMap:
    if not isinstance(doc, dict):
        raise FormatError(f"{where}: expected a map object")
    declared = (doc.get("arity"), doc.get("shift"))
    if declared != (arity, shift) or not _integers(declared):
        raise FormatError(
            f"{where}: declared arity/shift {declared[0]}/{declared[1]} "
            f"do not match the required {arity}/{shift}"
        )
    ents = doc.get("entries", [])
    if not isinstance(ents, list):
        raise FormatError(f"{where}: 'entries' must be a list")
    entries: list[Tuple[tuple, int]] = []
    seen_keys = set()
    for ent in ents:
        try:
            key = tuple([(d, i) for d, i in ent["in"]])
            outs = [(d, i) for d, i in ent["out"]]
        except (TypeError, ValueError, KeyError):
            raise FormatError(f"{where}: malformed entry {ent!r}") from None
        if not _integers(sum(key, ()) + sum(outs, ())):
            raise FormatError(f"{where}: malformed entry {ent!r}")
        out_deg = sum(d for d, _ in key) + shift
        bits = 0
        for d, i in outs:
            if d != out_deg:
                raise FormatError(
                    f"{where}: output element {(d, i)} has degree {d}, expected {out_deg}"
                )
            if not 0 <= i < cod.dim(d):
                raise FormatError(f"{where}: output element {(d, i)} outside the codomain")
            if bits & (1 << i):
                warnings.append(f"{where}: duplicate output element {(d, i)} canonicalized")
            bits ^= 1 << i
        n_sym = arity - 1 if last is not None else arity
        ckey = tuple(sorted(key[:n_sym])) + tuple(key[n_sym:])
        if ckey != key:
            warnings.append(f"{where}: entry {list(key)} canonicalized on load")
        if ckey in seen_keys:
            warnings.append(f"{where}: repeated multi-index {list(ckey)} merged on load")
        seen_keys.add(ckey)
        entries.append((ckey, bits))
    try:
        return SymMultiMap(arity, shift, sym, cod, entries, last_space=last)
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from None


def _parse_op_table(where: str, doc: dict, max_arity: int, shift_of,
                    sym: GradedSpace, last: Optional[GradedSpace], cod: GradedSpace,
                    warnings: List[str]) -> Dict[int, SymMultiMap]:
    out: Dict[int, SymMultiMap] = {}
    for key, mdoc in _object(doc, f"{where}: operation table").items():
        try:
            k = int(key)
        except ValueError:
            raise FormatError(f"{where}: non-integer arity key {key!r}") from None
        if not 1 <= k <= max_arity:
            raise FormatError(f"{where}: arity {k} outside 1..{max_arity}")
        out[k] = _parse_map(f"{where}[{k}]", mdoc, k, shift_of(k), sym, last, cod, warnings)
    return out


def _object(doc, what: str) -> dict:
    """doc, or {} when it is absent; anything but a JSON object is an error."""
    if not isinstance(doc or {}, dict):
        raise FormatError(f"{what} must be an object")
    return doc or {}


def _require(doc: dict, name: str, what: str):
    if name not in doc:
        raise FormatError(f"{what}: missing field {name!r}")
    return doc[name]


def parse_bundle(text: str) -> Bundle:
    """Parse one JSON document into a resolved bundle.

    Raises FormatError on malformed input or unresolvable references.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise FormatError("top level must be an object")

    bundle = Bundle(provenance=doc.get("provenance"))
    for name, sdoc in _object(doc.get("spaces"), "'spaces'").items():
        bundle.spaces[name] = _parse_space(name, sdoc)
    sdocs = _object(doc.get("structures"), "'structures'")

    def space_of(name: str, what: str) -> GradedSpace:
        if not isinstance(name, str) or name not in bundle.spaces:
            raise FormatError(f"{what}: unknown space {name!r}")
        return bundle.spaces[name]

    def structure_of(name: str, cls, what: str):
        s = bundle.structures.get(name) if isinstance(name, str) else None
        if not isinstance(s, cls):
            raise FormatError(f"{what}: reference {name!r} does not resolve to a {cls.__name__}")
        return s

    # two passes: algebras and modules first, then the morphism kinds
    order = {"algebra": 0, "module": 1, "morphism": 2, "module_morphism": 3}
    try:
        ranked = sorted(sdocs.items(), key=lambda kv: order[kv[1].get("kind")])
    except (KeyError, AttributeError, TypeError):
        raise FormatError("every structure needs a valid 'kind' field") from None

    for name, s in ranked:
        kind = s["kind"]
        what = f"{kind} {name!r}"
        max_arity = _require(s, "max_arity", what)
        if type(max_arity) is not int or max_arity < 1:  # bool is an int subclass
            raise FormatError(f"{what}: max_arity must be an integer >= 1")
        if kind == "algebra":
            space = space_of(_require(s, "space", what), what)
            ops = _parse_op_table(what, s.get("ops"), max_arity, lambda k: k - 2,
                                  space, None, space, bundle.warnings)
            bundle.structures[name] = LinfAlgebra.build(space, max_arity, ops)
        elif kind == "module":
            alg = structure_of(_require(s, "algebra", what), LinfAlgebra, what)
            space = space_of(_require(s, "space", what), what)
            ops = _parse_op_table(what, s.get("ops"), max_arity, lambda k: k - 2,
                                  alg.space, space, space, bundle.warnings)
            bundle.structures[name] = LinfModule.build(alg, space, max_arity, ops)
        elif kind == "morphism":
            src = structure_of(_require(s, "source", what), LinfAlgebra, what)
            tgt = structure_of(_require(s, "target", what), LinfAlgebra, what)
            comps = _parse_op_table(what, s.get("comps"), max_arity, lambda k: k - 1,
                                    src.space, None, tgt.space, bundle.warnings)
            bundle.structures[name] = LinfMorphism.build(src, tgt, max_arity, comps)
        elif kind == "module_morphism":
            src = structure_of(_require(s, "source", what), LinfModule, what)
            tgt = structure_of(_require(s, "target", what), LinfModule, what)
            if src.algebra != tgt.algebra:
                raise FormatError(f"{what}: source and target modules live over different algebras")
            comps = _parse_op_table(what, s.get("comps"), max_arity, lambda k: k - 1,
                                    src.algebra.space, src.space, tgt.space, bundle.warnings)
            bundle.structures[name] = ModuleMorphism.build(src, tgt, max_arity, comps)
        else:
            raise FormatError(f"{what}: unknown kind")
    return bundle


def merge_bundles(bundles) -> Bundle:
    """Union of several bundles; identical duplicates are tolerated."""
    out = Bundle()
    for b in bundles:
        for name, sp in b.spaces.items():
            if name in out.spaces and out.spaces[name] != sp:
                raise FormatError(f"space {name!r} defined twice with different content")
            out.spaces[name] = sp
        for name, st in b.structures.items():
            if name in out.structures and out.structures[name] != st:
                raise FormatError(f"structure {name!r} defined twice with different content")
            out.structures[name] = st
        out.warnings.extend(b.warnings)
    return out


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _map_doc(m: SymMultiMap) -> dict:
    entries = []
    for key, bits in m.entries():
        out_deg = sum(d for d, _ in key) + m.shift
        outs = [[out_deg, i] for i in sorted(
            i for i in range(m.codomain.dim(out_deg)) if bits >> i & 1)]
        entries.append({"in": [[d, i] for d, i in key], "out": outs})
    return {"arity": m.arity, "shift": m.shift, "entries": entries}


def _op_table_doc(maps) -> dict:
    return {str(k): _map_doc(m) for k, m in enumerate(maps, start=1) if not m.is_zero}


def serialize_bundle(bundle: Bundle, provenance: Optional[dict] = None) -> str:
    """Canonical JSON for the bundle: sorted keys, sorted entries, compact."""
    space_names: Dict[GradedSpace, str] = {}
    for name, sp in bundle.spaces.items():
        space_names.setdefault(sp, name)

    def space_ref(sp: GradedSpace, what: str) -> str:
        if sp not in space_names:
            raise FormatError(f"{what}: its space has no name in the bundle")
        return space_names[sp]

    def structure_ref(st, what: str) -> str:
        for name, other in bundle.structures.items():
            if other == st:
                return name
        raise FormatError(f"{what}: cross-reference to a structure missing from the bundle")

    sdocs = {}
    for name, st in bundle.structures.items():
        what = f"structure {name!r}"
        if isinstance(st, LinfAlgebra):
            sdocs[name] = {
                "kind": "algebra",
                "space": space_ref(st.space, what),
                "max_arity": st.max_arity,
                "ops": _op_table_doc(st.ops),
            }
        elif isinstance(st, LinfModule):
            sdocs[name] = {
                "kind": "module",
                "algebra": structure_ref(st.algebra, what),
                "space": space_ref(st.space, what),
                "max_arity": st.max_arity,
                "ops": _op_table_doc(st.ops),
            }
        elif isinstance(st, LinfMorphism):
            sdocs[name] = {
                "kind": "morphism",
                "source": structure_ref(st.source, what),
                "target": structure_ref(st.target, what),
                "max_arity": st.max_arity,
                "comps": _op_table_doc(st.comps),
            }
        elif isinstance(st, ModuleMorphism):
            sdocs[name] = {
                "kind": "module_morphism",
                "source": structure_ref(st.source, what),
                "target": structure_ref(st.target, what),
                "max_arity": st.max_arity,
                "comps": _op_table_doc(st.comps),
            }
        else:
            raise FormatError(f"{what}: unserializable type {type(st).__name__}")

    doc = {
        "spaces": {name: {"dims": {str(d): m for d, m in sp.dims().items()}}
                   for name, sp in bundle.spaces.items()},
        "structures": sdocs,
    }
    prov = provenance if provenance is not None else bundle.provenance
    if prov is not None:
        doc["provenance"] = prov
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
