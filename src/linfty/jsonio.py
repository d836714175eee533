"""
The JSON structure-file format.

A bundle document holds named graded spaces and named structures with
cross-references by name, and optionally a "provenance" object:

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
number is a JSON integer (not a float, string or bool); integer object keys
are in canonical decimal ("-1", not "-01" or "+1"); no object repeats a key.
Every basis index in "in" and "out" is below MAX_INDEX, whatever the
dimensions: an output is held as one bit per index below its highest, so an
index of 10**12 would need a 125 GB integer.
Entries must be canonical; non-canonical input is accepted, canonicalized and
reported as a warning.  Serialization is canonical (sorted keys, sorted
entries, compact separators) so byte equality of serialized structures is
meaningful.

The four kinds are described once, in the table KINDS: for each kind name,
its class, its part fields in the order its ``build`` takes them (each naming
a space, an algebra or a module of the bundle) and its maps field ("ops" or
"comps").  Parsing and serialization are one loop over that table, and a
field it does not list is an error, as is any field of the top level, a
space, a map or an entry other than those shown above.  A map's arity,
shift, slot spaces and canonical form are read off the zero map of its
arity that its kind's class gives for the structure's parts
(``_zero_maps``), so this module restates none of them.
"""

from __future__ import annotations

import functools
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .gfa import GradedSpace, SymMultiMap, set_bits
from .structures import LinfAlgebra, LinfModule, LinfMorphism, ModuleMorphism

__all__ = [
    "Bundle",
    "FormatError",
    "parse_bundle",
    "serialize_bundle",
    "merge_bundles",
    "digest",
    "MAX_INDEX",
]

Structure = object  # LinfAlgebra | LinfMorphism | LinfModule | ModuleMorphism


class FormatError(ValueError):
    """Malformed or unresolvable structure file."""


# every basis index of an entry lies below this, so its bits fit in 2 MB
MAX_INDEX = 1 << 24


# kind name -> (class, its part fields in build order with what each names,
# its maps field); a structure refers only to kinds listed before its own
KINDS: Dict[str, Tuple[type, Tuple[Tuple[str, type], ...], str]] = {
    "algebra": (LinfAlgebra, (("space", GradedSpace),), "ops"),
    "module": (LinfModule, (("algebra", LinfAlgebra), ("space", GradedSpace)), "ops"),
    "morphism": (LinfMorphism, (("source", LinfAlgebra), ("target", LinfAlgebra)), "comps"),
    "module_morphism": (ModuleMorphism, (("source", LinfModule), ("target", LinfModule)), "comps"),
}
# the fields a structure object of each kind, and a map object, may hold
_FIELDS = {kind: frozenset(("kind", "max_arity", maps, *(f for f, _ in parts)))
           for kind, (_, parts, maps) in KINDS.items()}
_MAP_FIELDS = frozenset(("arity", "shift", "entries"))
_ENTRY_FIELDS = frozenset(("in", "out"))
_SPACE_FIELDS = frozenset(("dims",))
_TOP_FIELDS = frozenset(("spaces", "structures", "provenance"))


def kind_of(st: Structure, what: str = "structure") -> str:
    """The table's name for the kind of st."""
    for kind, (cls, _, _) in KINDS.items():
        if isinstance(st, cls):
            return kind
    raise FormatError(f"{what}: unserializable type {type(st).__name__}")


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
    import hashlib  # here, so that `import linfty.cli` does not load hashlib

    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _integers(values) -> bool:
    """Whether every value is a JSON integer (bool is an int subclass)."""
    return set(map(type, values)) <= {int}


def _int_key(key: str, what: str) -> int:
    """An object key holding an integer in canonical decimal: int() alone also
    reads "02", " 2", "+2" and "1_0", so two keys could name one integer."""
    try:
        value = int(key)
    except ValueError:
        value = None
    if value is None or str(value) != key:
        raise FormatError(f"{what} {key!r} is not an integer in canonical decimal")
    return value


def _unique(pairs: List[Tuple[str, object]]) -> dict:
    """A JSON object as a dict; json.loads alone keeps a repeated key's last value."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise FormatError(f"duplicate key {key!r} in one object")
    return obj


# json.loads with a hook would build a decoder per call
_DECODER = json.JSONDecoder(object_pairs_hook=_unique)


def _parse_space(name: str, doc: dict) -> GradedSpace:
    what = f"space {name!r}"
    if not isinstance(doc, dict) or "dims" not in doc:
        raise FormatError(f"{what}: expected an object with a 'dims' field")
    _known(doc, _SPACE_FIELDS, what)
    if not isinstance(doc["dims"], dict):
        raise FormatError(f"{what}: malformed dims")
    key_what = f"{what}: degree key"
    dims = {_int_key(d, key_what): m for d, m in doc["dims"].items()}
    if not _integers(dims.values()):
        raise FormatError(f"{what}: every dimension must be an integer")
    if dims and min(dims.values()) < 0:
        raise FormatError(f"{what}: negative dimension")
    return _space(tuple(dims.items()))


@functools.lru_cache(maxsize=256)
def _space(dims: Tuple[Tuple[int, int], ...]) -> GradedSpace:
    """One space object per dims across the parses of one process, such as
    the files of one command: the zero maps an earlier parse cached
    (gfa.zero_map) then meet this parse's spaces as the same objects, which
    compare by identity rather than through GradedSpace.__eq__."""
    return GradedSpace(dict(dims))


def _parse_map(where: str, doc: dict, zero: SymMultiMap, warnings: List[str]) -> SymMultiMap:
    """The map described by doc, whose arity, shift, slot spaces and canonical
    form are those of the zero map of its place in the structure.  One pass
    checks each entry's types, index limit, output degree and duplicate
    outputs (_entry_error names a fault) and whether it is canonical: key in
    its slots' spaces, sorted and new, output nonzero and in the codomain.
    A canonical map is stored as read; any other goes to the constructor,
    which names a slot fault or sorts and merges keys, each then named in
    a warning."""
    if not isinstance(doc, dict):
        raise FormatError(f"{where}: expected a map object")
    _known(doc, _MAP_FIELDS, where)
    arity, shift = doc.get("arity"), doc.get("shift")
    if (arity, shift) != (zero.arity, zero.shift) or not type(arity) is int is type(shift):
        raise FormatError(
            f"{where}: declared arity/shift {arity}/{shift} "
            f"do not match the required {zero.arity}/{zero.shift}"
        )
    ents = doc.get("entries", [])
    if not isinstance(ents, list):
        raise FormatError(f"{where}: 'entries' must be a list")
    sym, cod, last = zero.sym_space, zero.codomain, zero.last_space
    sym_dim, cod_dim = sym._dim.get, cod._dim.get
    # each slot's dimension lookup; the module slot's is another object
    slot_dims = (sym_dim,) * zero.n_sym + ((last._dim.get,) if last is not None else ())
    entries: List[Tuple[tuple, int]] = []
    canonical = True  # every entry so far as the constructor stores it
    for ent in ents:
        # every check on an entry is made here, in one pass; an entry that
        # fails one is handed to _entry_error only to name its fault
        try:
            ins, outs = ent["in"], ent["out"]
            key, degree, bits, prev, dims = [], shift, 0, (), iter(slot_dims)
            for d, i in ins:
                if type(d) is not int or type(i) is not int or i >= MAX_INDEX:
                    raise _Faulty
                b = (d, i)
                key.append(b)
                degree += d
                # in its slot's space and, if symmetric, not below the last
                dim = next(dims, _NO_SLOT)
                if not 0 <= i < dim(d, 0) or dim is sym_dim and b < prev:
                    canonical = False
                prev = b
            for d, i in outs:
                if (type(d) is not int or type(i) is not int or d != degree
                        or not 0 <= i < MAX_INDEX):
                    raise _Faulty
                if bits >> i & 1:
                    warnings.append(f"{where}: duplicate output element {(d, i)} canonicalized")
                bits ^= 1 << i
            if len(ent) > 2:
                raise _Faulty
        except (TypeError, ValueError, KeyError, _Faulty):
            raise _entry_error(where, ent, shift) from None
        entries.append((tuple(key), bits))
        canonical = canonical and bits and len(key) == arity and not bits >> cod_dim(degree, 0)
    table = dict(entries)
    if canonical and len(table) == len(entries):
        return SymMultiMap._of_table(arity, shift, sym, cod, table, last_space=last)
    try:
        m = SymMultiMap(arity, shift, sym, cod, entries, last_space=last)
    except ValueError as exc:
        raise FormatError(f"{where}: {exc}") from None
    seen = set()
    for key, _ in entries:
        ckey = m.canonical_key(key)
        if ckey != key:
            warnings.append(f"{where}: entry {list(key)} canonicalized on load")
        if ckey in seen:
            warnings.append(f"{where}: repeated multi-index {list(ckey)} merged on load")
        seen.add(ckey)
    return m


_NO_SLOT = {}.get  # the dimensions of a slot past the last


class _Faulty(Exception):
    """An entry that fails a check of _parse_map."""


def _entry_error(where: str, ent, shift: int) -> FormatError:
    """The error naming the first fault of an entry that _parse_map refused,
    looking for faults in this order: a part that is not a list of pairs
    or a missing field, an unknown field, an element that is not a pair of
    integers below MAX_INDEX, then each output element's degree and sign.
    It makes no check of its own: a fault it does not list is named as a
    malformed entry."""
    try:
        ins, outs = ent["in"], ent["out"]
        for d, i in (*ins, *outs):
            pass
    except (TypeError, ValueError, KeyError):
        return FormatError(f"{where}: malformed entry {ent!r}")
    try:
        _known(ent, _ENTRY_FIELDS, f"{where}: entry {ent!r}")
    except FormatError as exc:
        return exc
    if not all(type(d) is int is type(i) and i < MAX_INDEX for d, i in (*ins, *outs)):
        return _bad_entry(where, ent)
    out_deg = sum([d for d, _ in ins]) + shift
    for d, i in outs:
        if d != out_deg:
            return FormatError(
                f"{where}: output element {(d, i)} has degree {d}, expected {out_deg}")
        if i < 0:
            return FormatError(f"{where}: output element {(d, i)} outside the codomain")
    return FormatError(f"{where}: malformed entry {ent!r}")


def _bad_entry(where: str, ent: dict) -> FormatError:
    """The error for an entry of pairs holding a number that is not an
    integer, or else a basis index at or above MAX_INDEX."""
    if not _integers([x for b in (*ent["in"], *ent["out"]) for x in b]):
        return FormatError(f"{where}: malformed entry {ent!r}")
    return FormatError(f"{where}: entry {ent!r} has a basis index at or above "
                       f"the limit {MAX_INDEX} (2**24)")


def _parse_op_table(where: str, doc: dict, max_arity: int, zero_of,
                    warnings: List[str]) -> Tuple[Optional[SymMultiMap], ...]:
    """The maps of an operation table, arity k at index k - 1, None in gaps."""
    maps: Dict[int, SymMultiMap] = {}
    for key, mdoc in _object(doc, f"{where}: operation table").items():
        k = _int_key(key, f"{where}: arity key")
        if not 1 <= k <= max_arity:
            raise FormatError(f"{where}: arity {k} outside 1..{max_arity}")
        maps[k] = _parse_map(f"{where}[{k}]", mdoc, zero_of(k), warnings)
    return tuple(map(maps.get, range(1, max(maps) + 1))) if maps else ()


def _object(doc, what: str) -> dict:
    """doc, or {} when it is absent; anything but a JSON object is an error."""
    if not isinstance(doc or {}, dict):
        raise FormatError(f"{what} must be an object")
    return doc or {}


def _require(doc: dict, name: str, what: str):
    if name not in doc:
        raise FormatError(f"{what}: missing field {name!r}")
    return doc[name]


def _known(doc: dict, fields: frozenset, what: str) -> None:
    """A misspelled field would otherwise be dropped without a word."""
    if not doc.keys() <= fields:
        raise FormatError(f"{what}: unknown field(s) {sorted(doc.keys() - fields)}")


def parse_bundle(text: str) -> Bundle:
    """Parse one JSON document into a resolved bundle.

    Raises FormatError on malformed input or unresolvable references.
    """
    try:
        if text.startswith("\ufeff"):  # as json.loads refuses it
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        doc = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise FormatError(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise FormatError("not valid JSON: nested too deeply") from None
    if not isinstance(doc, dict):
        raise FormatError("top level must be an object")
    _known(doc, _TOP_FIELDS, "top level")

    bundle = Bundle(provenance=doc.get("provenance"))
    for name, sdoc in _object(doc.get("spaces"), "'spaces'").items():
        bundle.spaces[name] = _parse_space(name, sdoc)
    sdocs = _object(doc.get("structures"), "'structures'")

    # in table order, so every reference names a structure parsed before it
    rank = {kind: i for i, kind in enumerate(KINDS)}
    try:
        ranked = sorted(sdocs.items(), key=lambda kv: rank[kv[1]["kind"]])
    except (KeyError, TypeError):
        raise FormatError("every structure needs a valid 'kind' field") from None

    for name, s in ranked:
        kind = s["kind"]
        cls, fields, maps_field = KINDS[kind]
        what = f"{kind} {name!r}"
        _known(s, _FIELDS[kind], what)
        max_arity = _require(s, "max_arity", what)
        if type(max_arity) is not int or max_arity < 1:  # bool is an int subclass
            raise FormatError(f"{what}: max_arity must be an integer >= 1")
        parts = []
        for f, ref in fields:
            ref_name = _require(s, f, what)
            pool = bundle.spaces if ref is GradedSpace else bundle.structures
            found = pool.get(ref_name) if isinstance(ref_name, str) else None
            if not isinstance(found, ref):
                raise FormatError(f"{what}: reference {ref_name!r} does not resolve to a "
                                  f"{ref.__name__}")
            parts.append(found)
        # zero maps by arity; here a module morphism's modules share an algebra
        try:
            zero_of = cls._zero_maps(*parts)
        except ValueError as exc:
            raise FormatError(f"{what}: {exc}") from None
        maps = _parse_op_table(what, s.get(maps_field), max_arity, zero_of, bundle.warnings)
        bundle.structures[name] = cls(*parts, max_arity, maps)
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
        entries.append({"in": [[d, i] for d, i in key],
                        "out": [[out_deg, i] for i in set_bits(bits)]})
    return {"arity": m.arity, "shift": m.shift, "entries": entries}


def _op_table_doc(maps) -> dict:
    return {str(k): _map_doc(m) for k, m in enumerate(maps, start=1) if not m.is_zero}


def serialize_bundle(bundle: Bundle, provenance: Optional[dict] = None) -> str:
    """Canonical JSON for the bundle: sorted keys, sorted entries, compact."""
    space_names: Dict[GradedSpace, str] = {}
    for name, sp in bundle.spaces.items():
        space_names.setdefault(sp, name)

    def reference(part, ref: type, what: str) -> str:
        if ref is GradedSpace:
            if part not in space_names:
                raise FormatError(f"{what}: its space has no name in the bundle")
            return space_names[part]
        for name, other in bundle.structures.items():
            if other == part:
                return name
        raise FormatError(f"{what}: cross-reference to a structure missing from the bundle")

    sdocs = {}
    for name, st in bundle.structures.items():
        what = f"structure {name!r}"
        kind = kind_of(st, what)
        _, fields, maps_field = KINDS[kind]
        sdoc = {"kind": kind, "max_arity": st.max_arity,
                maps_field: _op_table_doc(getattr(st, maps_field))}
        for f, ref in fields:
            sdoc[f] = reference(getattr(st, f), ref, what)
        sdocs[name] = sdoc

    doc = {
        "spaces": {name: {"dims": {str(d): m for d, m in sp.dims().items()}}
                   for name, sp in bundle.spaces.items()},
        "structures": sdocs,
    }
    prov = provenance if provenance is not None else bundle.provenance
    if prov is not None:
        doc["provenance"] = prov
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
