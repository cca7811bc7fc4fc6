"""Canonical file formats.

All JSON output is canonical: sorted keys, two-space indent, LF newlines,
integers only.  Element order inside a file defines element indices, and
element names are label metadata only; ground sets are always {0,...,n-1}.
"""

from __future__ import annotations

import json
from typing import Sequence

from .core import Morphism, PartialPermutation, Permutoid, validate_permutoid
from .develop import (
    BudgetExceeded,
    Development,
    ExhaustedUpTo,
    Found,
    ProbeReport,
)
from .errors import FormatError
from .groups import FiniteQuotientEvidence, RealizedGroup
from .pseudogroup import Pseudogroup, RigidDevelopment, check_pseudogroup


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def default_names(prefix: str, count: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(count))


def _is_int(value) -> bool:
    """JSON integers only: ``true`` and ``false`` load as bools, which
    Python counts as ints."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require(obj, key, kind, where):
    if not isinstance(obj, dict) or key not in obj:
        raise FormatError(f"{where}: missing key {key!r}")
    value = obj[key]
    if not (_is_int(value) if kind is int else isinstance(value, kind)):
        raise FormatError(f"{where}: key {key!r} has wrong type")
    return value


def _parse_elements(obj, key: str, where: str):
    raw = _require(obj, key, list, where)
    graphs, names = [], []
    for i, entry in enumerate(raw):
        name = _require(entry, "name", str, f"{where} element {i}")
        pairs = _require(entry, "map", list, f"{where} element {i}")
        graph = []
        for pair in pairs:
            if not (isinstance(pair, list) and len(pair) == 2 and all(_is_int(v) for v in pair)):
                raise FormatError(f"{where} element {i}: map entries must be [x, y] pairs")
            graph.append((pair[0], pair[1]))
        graphs.append(tuple(graph))
        names.append(name)
    if len(set(names)) != len(names):
        raise FormatError(f"{where}: element names must be unique")
    return graphs, tuple(names)


# -- permutoids ---------------------------------------------------------------

def permutoid_to_obj(P: Permutoid, names: Sequence[str] | None = None) -> dict:
    if names is None:
        names = default_names("p", len(P.elements))
    return {
        "ground_set_size": P.ground_size,
        "elements": [
            {"name": names[i], "map": [[x, y] for x, y in el.pairs]}
            for i, el in enumerate(P.elements)
        ],
    }


def permutoid_from_obj(obj) -> tuple[Permutoid, tuple[str, ...]]:
    n = _require(obj, "ground_set_size", int, "permutoid")
    graphs, names = _parse_elements(obj, "elements", "permutoid")
    return validate_permutoid(n, graphs), names


# -- partial permutation lists (pseudogroup generators and antichains) ---------

def pseudogroup_to_obj(H: Pseudogroup) -> dict:
    return {
        "ground_set_size": H.ground_size,
        "maximal_elements": [
            {"name": f"m{i}", "map": [[x, y] for x, y in m.pairs]}
            for i, m in enumerate(H.maximal_elements)
        ],
    }


def pseudogroup_from_obj(obj) -> tuple[Pseudogroup, tuple[str, ...]]:
    n = _require(obj, "ground_set_size", int, "pseudogroup")
    graphs, names = _parse_elements(obj, "maximal_elements", "pseudogroup")
    members = tuple(PartialPermutation.from_pairs(n, g) for g in graphs)
    H = Pseudogroup(n, members)
    check_pseudogroup(H)
    return H, names


def generators_from_obj(obj) -> tuple[int, list[PartialPermutation], tuple[str, ...]]:
    n = _require(obj, "ground_set_size", int, "generators")
    graphs, names = _parse_elements(obj, "elements", "generators")
    return n, [PartialPermutation.from_pairs(n, g) for g in graphs], names


# -- developments ---------------------------------------------------------------

def development_to_obj(D: Development, names: Sequence[str]) -> dict:
    return {
        "ground_size": D.ground_size,
        "embedding": "identity-prefix",
        "maps": {names[i]: list(perm) for i, perm in enumerate(D.maps)},
    }


def development_from_obj(obj, names: Sequence[str]) -> Development:
    m = _require(obj, "ground_size", int, "development")
    embedding = _require(obj, "embedding", str, "development")
    if embedding != "identity-prefix":
        raise FormatError("development: embedding must be \"identity-prefix\"")
    maps = _require(obj, "maps", dict, "development")
    if set(maps) != set(names):
        raise FormatError("development: map keys must match the permutoid's element names")
    out = []
    for name in names:
        perm = maps[name]
        if not (isinstance(perm, list) and all(_is_int(v) for v in perm)):
            raise FormatError(f"development: map {name!r} must be a list of integers")
        out.append(tuple(perm))
    return Development(m, tuple(out))


# -- realized groups --------------------------------------------------------------

def realized_group_to_obj(g: RealizedGroup, names: Sequence[str]) -> dict:
    return {
        "order": g.order,
        "table": [list(row) for row in g.table],
        "generator_images": {
            names[i]: g.generator_images[i] for i in range(len(names))
        },
    }


def realized_group_from_obj(obj) -> tuple[RealizedGroup, tuple[str, ...]]:
    order = _require(obj, "order", int, "group table")
    table = _require(obj, "table", list, "group table")
    images = _require(obj, "generator_images", dict, "group table")
    rows = []
    for row in table:
        if not (isinstance(row, list) and all(_is_int(v) for v in row)):
            raise FormatError("group table: table rows must be lists of integers")
        rows.append(tuple(row))
    names = tuple(sorted(images))
    for name in names:
        if not _is_int(images[name]):
            raise FormatError("group table: generator images must be integers")
    group = RealizedGroup(order, tuple(rows), tuple(images[name] for name in names))
    return group, names


# -- morphisms, evidence, reports ---------------------------------------------------

def morphism_to_obj(m: Morphism) -> dict:
    return {
        "point_map": list(m.point_map),
        "element_map": list(m.element_map),
    }


def evidence_to_obj(e: FiniteQuotientEvidence) -> dict:
    return {
        "degree": e.degree,
        "generator_images": {
            e.generators[i]: list(e.images[i]) for i in range(len(e.generators))
        },
        "group_order": e.group_order,
        "nontrivial": e.nontrivial,
    }


def verdict_to_obj(v, names: Sequence[str], start_size: int) -> dict:
    if isinstance(v, Found):
        dev = v.development
        obj = {"verdict": "found", "nodes": v.nodes_explored}
        last = dev.ground_size
        if isinstance(dev, Development):
            obj["development"] = development_to_obj(dev, names)
        elif isinstance(dev, RigidDevelopment):
            obj["rigid_development"] = {
                "ground_size": dev.ground_size,
                "group_order": dev.group_order,
                "group_permutations": [list(p) for p in dev.group_permutations],
                "assignment": {
                    names[i]: list(p) for i, p in enumerate(dev.assignment)
                },
            }
    elif isinstance(v, ExhaustedUpTo):
        obj = {
            "verdict": "exhausted-up-to",
            "max_ground": v.max_ground,
            "nodes": v.nodes_explored,
        }
        last = v.max_ground
    elif isinstance(v, BudgetExceeded):
        obj = {
            "verdict": "budget-exceeded",
            "nodes": v.nodes_explored,
            "size_reached": v.size_reached,
        }
        last = v.size_reached
    else:
        raise TypeError(f"not a search verdict: {v!r}")
    obj["sizes_tried"] = list(range(start_size, last + 1))
    return obj


def probe_report_to_obj(r: ProbeReport) -> dict:
    obj: dict = {"verdict": r.verdict, "statistics": dict(r.statistics)}
    if r.evidence is not None:
        obj["evidence"] = evidence_to_obj(r.evidence)
    if r.quotient is not None:
        obj["quotient"] = permutoid_to_obj(r.quotient)
    if r.quotient_morphism is not None:
        obj["quotient_morphism"] = morphism_to_obj(r.quotient_morphism)
    if r.development is not None:
        obj["development"] = development_to_obj(
            r.development, default_names("p", len(r.development.maps))
        )
    return obj


def error_to_obj(exc) -> dict:
    details = {}
    for key, value in exc.details.items():
        if isinstance(value, tuple):
            value = list(value)
        details[key] = value
    return {
        "error": {
            "code": exc.code,
            "message": str(exc),
            "details": details,
        }
    }
