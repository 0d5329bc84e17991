"""Tests for the index/result validators."""

import numpy as np
import pytest

from repro import FastPPV, StopAfterIterations, build_index
from repro.core.index import PPVIndex
from repro.core.prime import PrimePPV
from repro.core.validation import (
    ValidationReport,
    validate_index_against_graph,
    validate_index_structure,
    validate_query_result,
)
from tests.conftest import FIG3_HUBS


class TestReport:
    def test_ok_semantics(self):
        report = ValidationReport(checks=3)
        assert report.ok
        report.add_problem("x")
        assert not report.ok

    def test_merge(self):
        a = ValidationReport(checks=1, problems=["a"])
        b = ValidationReport(checks=2)
        merged = a.merged(b)
        assert merged.checks == 3
        assert merged.problems == ["a"]


class TestStructuralValidation:
    def test_clean_index_passes(self, small_social_index):
        report = validate_index_structure(small_social_index)
        assert report.ok, report.problems
        assert report.checks > small_social_index.num_hubs

    @staticmethod
    def _with_first_hub(index, entry):
        """``index`` with its first hub's entry swapped for ``entry``
        (dropped when ``None``)."""
        entries = {hub: index.get(hub) for hub in index.hubs.tolist()}
        entries[FIG3_HUBS[0]] = entry
        if entry is None:
            del entries[FIG3_HUBS[0]]
        return PPVIndex(
            index.alpha, index.epsilon, index.clip, index.hub_mask, entries
        )

    def test_detects_wrong_source(self, fig1_graph):
        # The block files a row under its entry's source, so an entry
        # keyed under another hub is refused when the index is made.
        index = build_index(fig1_graph, FIG3_HUBS)
        entry = index.get(FIG3_HUBS[0])
        with pytest.raises(ValueError, match="source field says 99"):
            self._with_first_hub(index, PrimePPV(
                source=99,
                nodes=entry.nodes,
                scores=entry.scores,
                border_hubs=entry.border_hubs,
                border_masses=entry.border_masses,
            ))

    def test_detects_negative_score(self, fig1_graph):
        index = build_index(fig1_graph, FIG3_HUBS)
        entry = index.get(FIG3_HUBS[0])
        bad_scores = entry.scores.copy()
        bad_scores[0] = -0.5
        index = self._with_first_hub(index, PrimePPV(
            source=entry.source,
            nodes=entry.nodes,
            scores=bad_scores,
            border_hubs=entry.border_hubs,
            border_masses=entry.border_masses,
        ))
        report = validate_index_structure(index)
        assert any("non-positive scores" in p for p in report.problems)

    def test_detects_non_hub_border(self, fig1_graph):
        index = build_index(fig1_graph, FIG3_HUBS)
        entry = index.get(FIG3_HUBS[0])
        index = self._with_first_hub(index, PrimePPV(
            source=entry.source,
            nodes=entry.nodes,
            scores=entry.scores,
            border_hubs=np.array([0]),  # node 0 is not a hub
            border_masses=np.array([0.1]),
        ))
        report = validate_index_structure(index)
        assert any("not a hub" in p for p in report.problems)

    def test_detects_missing_entry(self, fig1_graph):
        index = self._with_first_hub(build_index(fig1_graph, FIG3_HUBS), None)
        report = validate_index_structure(index)
        assert any("disagree" in p for p in report.problems)


class TestGraphConsistency:
    def test_fresh_index_passes(self, small_social, small_social_index):
        report = validate_index_against_graph(
            small_social_index, small_social, sample=5, seed=1
        )
        assert report.ok, report.problems

    def test_detects_stale_index(self, small_social, small_social_index):
        from repro.core.dynamic import add_edges

        # Mutate the graph under the index: validation must notice for at
        # least some sampled hub (new edges land inside hub neighborhoods
        # with high probability; sample all hubs to be deterministic).
        edits = [(int(h), (int(h) + 7) % small_social.num_nodes)
                 for h in small_social_index.hubs[:5]]
        new_graph = add_edges(small_social, edits)
        report = validate_index_against_graph(
            small_social_index, new_graph,
            sample=small_social_index.num_hubs, seed=0,
        )
        assert not report.ok

    def test_detects_size_mismatch(self, fig1_graph, small_social_index):
        report = validate_index_against_graph(small_social_index, fig1_graph)
        assert not report.ok
        assert "covers" in report.problems[0]


class TestQueryResultValidation:
    def test_clean_result_passes(self, small_social, small_social_index):
        engine = FastPPV(small_social, small_social_index)
        result = engine.query(12, stop=StopAfterIterations(2))
        report = validate_query_result(result)
        assert report.ok, report.problems

    def test_detects_mass_mismatch(self, small_social, small_social_index):
        engine = FastPPV(small_social, small_social_index)
        result = engine.query(12, stop=StopAfterIterations(1))
        result.scores[0] += 0.5  # corrupt the estimate
        report = validate_query_result(result)
        assert any("Eq. 6" in p for p in report.problems)

    def test_detects_negative_entry(self, small_social, small_social_index):
        engine = FastPPV(small_social, small_social_index)
        result = engine.query(12, stop=StopAfterIterations(1))
        result.scores[0] = -0.2
        result.error_history[-1] = 1.0 - float(result.scores.sum())
        report = validate_query_result(result)
        assert any("negative" in p for p in report.problems)

    def test_detects_bad_history(self, small_social, small_social_index):
        engine = FastPPV(small_social, small_social_index)
        result = engine.query(12, stop=StopAfterIterations(2))
        result.error_history.insert(0, 0.0)  # breaks monotonicity + length
        report = validate_query_result(result)
        assert not report.ok
