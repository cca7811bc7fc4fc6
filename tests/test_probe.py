"""The finite-quotient probe pipeline and its certificates."""

import pytest

from permutoid_lab.develop import probe_finite_quotient, verify_development
from permutoid_lab.errors import PreconditionRadius, UsageError
from permutoid_lab.groups import parse_presentation, verify_quotient_hom


class TestProbeFiniteQuotient:
    def test_z6_finds_certified_divisor(self, pool_presentations):
        report = probe_finite_quotient(pool_presentations["z6"], rho=4, max_ground=12)
        assert report.verdict == "found-quotient"
        assert report.evidence.nontrivial
        assert report.evidence.group_order in (2, 3, 6)
        assert 6 % report.evidence.group_order == 0
        # re-certify the evidence independently
        ev = verify_quotient_hom(
            pool_presentations["z6"],
            dict(zip(report.evidence.generators, report.evidence.images)),
        )
        assert ev.group_order == report.evidence.group_order

    def test_free_group_finds_modular_reduction(self):
        report = probe_finite_quotient(parse_presentation("gens: a"), rho=1, max_ground=8)
        assert report.verdict == "found-quotient"
        assert 1 < report.evidence.group_order <= 8

    def test_trivial_group_definitively_none(self):
        report = probe_finite_quotient(
            parse_presentation("gens: a\nrels: a"), rho=2, max_ground=4
        )
        assert report.verdict == "definitively-none"
        assert report.evidence is None

    def test_negative_budget_rejected(self):
        # checked before the trivial group returns its verdict
        with pytest.raises(UsageError):
            probe_finite_quotient(
                parse_presentation("gens: a\nrels: a"), rho=2, max_ground=4, node_budget=-1
            )

    @pytest.mark.parametrize(
        "bounds, message",
        [
            ({"rho": 2.0, "max_ground": 4}, "rho must be an int, got 2.0"),
            ({"rho": 2, "max_ground": 4.0}, "max_ground must be an int, got 4.0"),
            ({"rho": 2, "max_ground": 4, "node_budget": 2.0}, "node_budget must be an int, got 2.0"),
            ({"rho": 2, "max_ground": 4, "node_budget": True}, "node_budget must be an int, got True"),
        ],
        ids=["float-rho", "float-max-ground", "float-budget", "bool-budget"],
    )
    def test_non_int_bounds_rejected(self, bounds, message):
        # checked before the trivial group returns its verdict
        with pytest.raises(UsageError, match=message):
            probe_finite_quotient(parse_presentation("gens: a\nrels: a"), **bounds)

    def test_bad_cap_rejected_on_a_free_group(self):
        # the free group needs no coset enumeration, and was probed anyway
        with pytest.raises(UsageError, match="max_cosets must be >= 1"):
            probe_finite_quotient(parse_presentation("gens: a"), rho=1, max_ground=8, max_cosets=0)

    def test_radius_precondition(self, pool_presentations):
        with pytest.raises(PreconditionRadius):
            probe_finite_quotient(pool_presentations["z6"], rho=3, max_ground=8)

    def test_inconclusive_when_quotients_exceed_bounds(self, pool_presentations):
        # the only non-trivial quotient class of the saturated five-element
        # ball needs five points, which the bound forbids
        report = probe_finite_quotient(pool_presentations["z5"], rho=3, max_ground=4)
        assert report.verdict == "inconclusive"
        assert report.statistics["skipped_too_large"] == 1
        assert report.statistics["searches_run"] == 0

    def test_found_within_bounds_after_raising_them(self, pool_presentations):
        report = probe_finite_quotient(pool_presentations["z5"], rho=3, max_ground=5)
        assert report.verdict == "found-quotient"
        assert report.evidence.group_order == 5

    def test_statistics_present(self, pool_presentations):
        report = probe_finite_quotient(pool_presentations["z6"], rho=4, max_ground=12)
        stats = report.statistics
        assert stats["quotient_classes"] == 3
        assert stats["searches_run"] >= 1
        assert stats["ground_size"] == 6

    def test_found_development_verifies_against_quotient(self, pool_presentations):
        report = probe_finite_quotient(pool_presentations["z6"], rho=4, max_ground=12)
        verify_development(report.quotient_morphism.target, report.development)

    def test_deterministic_reports_equal(self, pool_presentations):
        r1 = probe_finite_quotient(pool_presentations["z6"], rho=4, max_ground=12)
        r2 = probe_finite_quotient(pool_presentations["z6"], rho=4, max_ground=12)
        assert r1.evidence == r2.evidence
        assert r1.development == r2.development
        assert dict(r1.statistics) == dict(r2.statistics)
