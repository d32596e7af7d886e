"""Tests for repro.core.paper_report — the release gate."""

from __future__ import annotations

import pytest

from repro.core.paper_report import Claim, build_report, render_report


@pytest.fixture(scope="module")
def claims():
    return build_report()


class TestReport:
    def test_all_claims_hold(self, claims):
        """The integration release gate: every headline claim must hold."""
        failing = [c.ident for c in claims if not c.holds]
        assert not failing, f"claims failing: {failing}"

    def test_measured_values_pinned(self, claims):
        """Golden values: a speed-up of any stage must not move a number."""
        assert [(c.ident, c.measured) for c in claims] == [
            ("FIG1", "71.3%"),
            ("T-RARE", "0.15%"),
            ("FIG6", "94.9%"),
            ("FIG7", "max 15.6%"),
            ("FIG5", "mean 1.5, var 1.2"),
            ("T-RESOLV", "87.4% rare"),
            ("FIG8", "5.4%"),
            ("T-HYBRID", "63.0% predicted"),
            ("T-HYBRID", "51x DHT cost"),
            ("X-SYN", "24.5% vs 19.5%"),
            ("X-SYN", "83.0% vs 67.9%"),
        ]

    def test_covers_every_experiment_family(self, claims):
        idents = {c.ident for c in claims}
        assert {"FIG1", "FIG5", "FIG6", "FIG7", "FIG8", "T-HYBRID", "X-SYN"} <= idents

    def test_render_contains_verdicts(self, claims):
        text = render_report(claims)
        assert "HOLDS" in text
        assert f"{len(claims)}/{len(claims)} claims hold." in text

    def test_render_failing_claim(self):
        text = render_report(
            [Claim("X", "something", "1", "2", False)]
        )
        assert "FAILS" in text
        assert "0/1" in text
