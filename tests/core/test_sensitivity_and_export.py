"""Tests for repro.core.sensitivity and repro.core.export."""

from __future__ import annotations

import csv
import json

import numpy as np
import pytest

from repro.core.export import export_all, write_csv
from repro.core.sensitivity import (
    MismatchSensitivityConfig,
    run_mismatch_sensitivity,
)
from repro.tracegen.catalog import CatalogConfig
from repro.tracegen.gnutella_trace import GnutellaTraceConfig


def _sweep_config(n_workers: int = 1) -> MismatchSensitivityConfig:
    return MismatchSensitivityConfig(
        match_fractions=(0.05, 0.5, 1.0),
        n_resolvability_samples=300,
        catalog=CatalogConfig(
            n_songs=20_000, n_artists=2_000, lexicon_size=12_000, seed=5
        ),
        trace=GnutellaTraceConfig(n_peers=400, mean_library_size=80.0, seed=5),
        seed=5,
        n_workers=n_workers,
    )


class TestSensitivity:
    @pytest.fixture(scope="class")
    def points(self):
        return run_mismatch_sensitivity(_sweep_config())

    def test_parallel_sweep_matches_serial(self, points):
        # Each point is seed-pure, so a worker that wrote module state
        # the parent never sees would show up as a mismatch here.
        assert run_mismatch_sensitivity(_sweep_config(n_workers=2)) == points

    def test_similarity_tracks_match_fraction(self, points):
        sims = [p.query_file_similarity for p in points]
        assert sims == sorted(sims)
        assert sims[0] < 0.1 < sims[-1]

    def test_alignment_reduces_unresolvable(self, points):
        assert points[-1].unresolvable_fraction < points[0].unresolvable_fraction

    def test_alignment_reduces_rare(self, points):
        assert points[-1].rare_fraction < points[0].rare_fraction

    def test_alignment_raises_answering_peers(self, points):
        assert points[-1].median_result_peers > points[0].median_result_peers

    def test_config_validation(self):
        with pytest.raises(ValueError, match="match fraction"):
            MismatchSensitivityConfig(match_fractions=())
        with pytest.raises(ValueError, match="probabilities"):
            MismatchSensitivityConfig(match_fractions=(1.5,))


class TestExport:
    def test_write_csv_roundtrip(self, tmp_path):
        path = tmp_path / "sub" / "x.csv"
        write_csv(path, ["a", "b"], [(1, 2), (3, 4)])
        with path.open() as fh:
            rows = list(csv.reader(fh))
        assert rows == [["a", "b"], ["1", "2"], ["3", "4"]]

    def test_export_all_writes_every_artifact(self, tmp_path):
        manifest = export_all(tmp_path, quick=True)
        expected = {
            "fig1_replica_ccdf.csv",
            "fig3_term_ccdf.csv",
            "fig6_stability.csv",
            "fig7_query_file_similarity.csv",
            "fig8_flood_success.csv",
            "table_reach.csv",
            "table_hybrid.csv",
            "manifest.json",
        }
        names = {p.name for p in tmp_path.iterdir()}
        assert expected <= names
        assert any(n.startswith("fig5_transients_") for n in names)

        saved = json.loads((tmp_path / "manifest.json").read_text())
        assert saved["fig8_zipf_ttl3"] == pytest.approx(manifest["fig8_zipf_ttl3"])
        # The exported headline values satisfy the paper's claims.
        assert 0.02 <= saved["fig8_zipf_ttl3"] <= 0.10
        assert saved["fig6_stability_after_warmup"] > 0.9
        assert saved["fig7_max_similarity"] < 0.2

    def test_fig8_csv_well_formed(self, tmp_path):
        export_all(tmp_path, quick=True)
        with (tmp_path / "fig8_flood_success.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "ttl"
        assert len(rows) == 6  # header + 5 TTLs
        values = np.array([[float(x) for x in r[1:]] for r in rows[1:]])
        assert np.all((0 <= values) & (values <= 1))
