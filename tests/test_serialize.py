"""File formats: round trips and canonical bytes."""

import json

import pytest

from permutoid_lab import serialize
from permutoid_lab.core import validate_permutoid
from permutoid_lab.develop import Development, DevelopmentProblem, search_development
from permutoid_lab.errors import FormatError, ValidationError
from permutoid_lab.groups import todd_coxeter, parse_presentation
from permutoid_lab.pseudogroup import generate_pseudogroup
from permutoid_lab.core import PartialPermutation

REMARK = validate_permutoid(2, [[(0, 0), (1, 1)], [(0, 1)], [(1, 0)]])


class TestPermutoidFormat:
    def test_round_trip(self):
        obj = serialize.permutoid_to_obj(REMARK, ("one", "fwd", "back"))
        loaded, names = serialize.permutoid_from_obj(obj)
        assert loaded == REMARK
        assert names == ("one", "fwd", "back")

    def test_canonical_bytes_stable(self):
        obj = serialize.permutoid_to_obj(REMARK)
        text = serialize.canonical_json(obj)
        assert text == serialize.canonical_json(json.loads(text))
        assert text.endswith("\n") and "\r" not in text

    def test_element_order_defines_indices(self):
        obj = {
            "ground_set_size": 2,
            "elements": [
                {"name": "fwd", "map": [[0, 1]]},
                {"name": "one", "map": [[0, 0], [1, 1]]},
            ],
        }
        loaded, names = serialize.permutoid_from_obj(obj)
        assert loaded.identity_index == 1
        assert names == ("fwd", "one")

    def test_missing_identity_rejected(self):
        obj = {"ground_set_size": 2, "elements": [{"name": "fwd", "map": [[0, 1]]}]}
        with pytest.raises(ValidationError):
            serialize.permutoid_from_obj(obj)

    def test_schema_violations(self):
        with pytest.raises(FormatError):
            serialize.permutoid_from_obj({"elements": []})
        with pytest.raises(FormatError):
            serialize.permutoid_from_obj({"ground_set_size": 2, "elements": [{}]})
        with pytest.raises(FormatError):
            serialize.permutoid_from_obj(
                {
                    "ground_set_size": 2,
                    "elements": [
                        {"name": "a", "map": [[0, 0], [1, 1]]},
                        {"name": "a", "map": [[0, 1]]},
                    ],
                }
            )


class TestDevelopmentFormat:
    def test_round_trip(self):
        verdict = search_development(DevelopmentProblem(REMARK, 4))
        names = ("one", "fwd", "back")
        obj = serialize.development_to_obj(verdict.development, names)
        assert obj["embedding"] == "identity-prefix"
        loaded = serialize.development_from_obj(obj, names)
        assert loaded == verdict.development

    def test_name_mismatch_rejected(self):
        obj = {
            "ground_size": 2,
            "embedding": "identity-prefix",
            "maps": {"other": [0, 1]},
        }
        with pytest.raises(FormatError):
            serialize.development_from_obj(obj, ("one",))

    def test_bad_embedding_rejected(self):
        obj = {"ground_size": 2, "embedding": "arbitrary", "maps": {"one": [0, 1]}}
        with pytest.raises(FormatError):
            serialize.development_from_obj(obj, ("one",))


class TestGroupTableFormat:
    def test_round_trip(self, pool_presentations):
        g = todd_coxeter(pool_presentations["s3"], 100)
        obj = serialize.realized_group_to_obj(g, pool_presentations["s3"].generators)
        loaded, names = serialize.realized_group_from_obj(obj)
        assert loaded.order == 6
        assert loaded.table == g.table
        assert names == ("a", "b")

    def test_generators_ordered_by_name(self):
        table = [[(i + j) % 2 for j in range(2)] for i in range(2)]
        obj = {"order": 2, "table": table, "generator_images": {"z": 1, "a": 1}}
        loaded, names = serialize.realized_group_from_obj(obj)
        assert names == ("a", "z")


class TestPseudogroupFormat:
    def test_round_trip(self):
        H = generate_pseudogroup(3, [PartialPermutation.from_pairs(3, [(0, 1)])])
        obj = serialize.pseudogroup_to_obj(H)
        loaded, names = serialize.pseudogroup_from_obj(obj)
        assert loaded == H
        assert len(names) == 3

    def test_ill_formed_rejected(self):
        obj = {
            "ground_set_size": 2,
            "maximal_elements": [
                {"name": "one", "map": [[0, 0], [1, 1]]},
                {"name": "frag", "map": [[0, 0]]},
            ],
        }
        from permutoid_lab.errors import PseudogroupError

        with pytest.raises(PseudogroupError):
            serialize.pseudogroup_from_obj(obj)

    def test_generators_drop_their_names(self):
        obj = {
            "ground_set_size": 3,
            "elements": [{"name": "s", "map": [[0, 1]]}, {"name": "t", "map": [[1, 2], [2, 0]]}],
        }
        gens = [PartialPermutation.from_pairs(3, pairs) for pairs in ([(0, 1)], [(1, 2), (2, 0)])]
        assert serialize.generators_from_obj(obj) == (3, gens)
        obj["elements"][1]["name"] = "s"
        with pytest.raises(FormatError, match="generators: element names must be unique"):
            serialize.generators_from_obj(obj)


@pytest.mark.parametrize(
    "load, obj",
    [
        (
            serialize.permutoid_from_obj,
            {"ground_set_size": True, "elements": [{"name": "one", "map": [[0, 0]]}]},
        ),
        (
            serialize.permutoid_from_obj,
            {"ground_set_size": 2, "elements": [{"name": "one", "map": [[0, 0], [1, True]]}]},
        ),
        (
            lambda obj: serialize.development_from_obj(obj, ("one",)),
            {"ground_size": 2, "embedding": "identity-prefix", "maps": {"one": [0, True]}},
        ),
        (
            serialize.realized_group_from_obj,
            {"order": 2, "table": [[0, 1], [1, False]], "generator_images": {"a": 1}},
        ),
        (
            serialize.realized_group_from_obj,
            {"order": 2, "table": [[0, 1], [1, 0]], "generator_images": {"a": True}},
        ),
    ],
    ids=["required-key", "map-pair", "development-map", "table-row", "generator-image"],
)
def test_booleans_are_not_integers(load, obj):
    with pytest.raises(FormatError):
        load(obj)
