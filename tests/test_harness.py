"""Integration tests: every registered experiment runs and supports its claim.

These are the tests that tie the library back to the paper: each experiment's
quick run must reproduce the qualitative statement of the theorem/lemma/figure
it corresponds to (the mapping is each ``Experiment``'s ``paper_reference``
in :mod:`repro.harness.experiments`).
"""

import pytest

from repro.harness import EXPERIMENTS, get_experiment, run_experiment


@pytest.fixture(scope="module")
def results():
    """Run every experiment once (quick mode) and cache the results."""
    return {key: run_experiment(key, quick=True) for key in EXPERIMENTS}


def test_registry_lookup():
    assert get_experiment("e1").experiment_id == "E1"
    with pytest.raises(KeyError):
        get_experiment("E99")


def test_every_experiment_produces_a_table(results):
    for key, result in results.items():
        assert result.rows, f"{key} produced no rows"
        assert result.headers
        text = result.to_text()
        assert key in text


def test_e1_footprint_stays_within_every_bound(results):
    result = results["E1"]
    for row in result.rows:
        _variant, epsilon, bound, footprint_ratio, reserved_ratio, _moves = row
        assert reserved_ratio <= bound + 1e-9
        assert footprint_ratio <= bound + 1e-9
        assert reserved_ratio >= 1.0


def test_e1_smaller_epsilon_costs_more_moves(results):
    result = results["E1"]
    amortized = [row for row in result.rows if row[0].startswith("amortized")]
    moves = [row[5] for row in sorted(amortized, key=lambda r: -r[1])]
    assert moves == sorted(moves), "moves per insert should grow as epsilon shrinks"


def test_e2_cost_ratios_bounded_for_every_cost_function(results):
    result = results["E2"]
    for row in result.rows:
        for ratio in row[1:]:
            assert 0 < ratio < 60


def test_e3_only_the_cost_oblivious_reallocator_is_good_everywhere(results):
    summary = results["E3"].data["summary"]
    oblivious = next(v for k, v in summary.items() if k.startswith("cost-oblivious"))
    first_fit = summary["first-fit"]
    logging = summary["logging-compact"]
    gap = summary["size-class-gap"]
    # Non-moving allocators fragment; the reallocator does not.
    assert first_fit["fragmentation_footprint"] > 5 * oblivious["fragmentation_footprint"]
    assert oblivious["churn_footprint"] <= 1.25 + 1e-9
    # Logging keeps a 2x footprint but needs huge single-request bursts.
    assert logging["worst_single_request_moves"] > 10 * gap["worst_single_request_moves"]
    # The size-class-gap scheme pays a growing linear-cost ratio on the flood.
    assert gap["flood_linear_ratio"] > 2.0
    # The cost-oblivious reallocator stays bounded in every column.
    assert oblivious["churn_linear_ratio"] < 60
    assert oblivious["churn_constant_ratio"] < 60


def test_e4_defragmentation_respects_space_bound(results):
    for outcome in results["E4"].data["outcomes"]:
        assert outcome["peak"] <= outcome["bound"] + 1e-9
        assert outcome["min_gap"] >= 0
        names = sorted(outcome["sorted"], key=lambda n: int(n.split("-")[1]))
        addresses = [outcome["sorted"][n] for n in names]
        assert addresses == sorted(addresses)


def test_e5_checkpoints_track_one_over_epsilon(results):
    rows = results["E5"].rows
    means = {row[0]: row[2] for row in rows}
    # More precision (smaller epsilon) => at least as many checkpoints per flush.
    assert means[0.0625] >= means[0.25] >= means[0.5] * 0.8
    for row in rows:
        assert row[3] < 200  # max checkpoints per request stays far from O(n)


def test_e6_transient_footprint_within_bound(results):
    for row in results["E6"].rows:
        assert row[-1] is True


def test_e7_deamortized_bound_respected(results):
    data = results["E7"].data["deamortized (Sec. 3.3)"]
    assert data["violations"] == 0


def test_e8_lower_bound_is_matched(results):
    result = results["E8"]
    for (delta, _label), worst in result.data.items():
        # Some request costs at least f(Delta) under the linear cost (where
        # f(Delta) = Delta), as Lemma 3.7 requires.
        assert worst["linear"] >= delta


def test_e9_scaling_rows_cover_every_length(results):
    lengths = {row[0] for row in results["E9"].rows}
    assert len(lengths) == 3


def test_f1_reallocation_closes_holes(results):
    rows = {row[0]: row for row in results["F1"].rows}
    oblivious = next(v for k, v in rows.items() if k.startswith("cost-oblivious"))
    first_fit = rows["first-fit"]
    assert oblivious[3] < 1.3
    assert first_fit[3] > 3


def test_f2_layout_lists_regions_in_class_order(results):
    classes = [row[0] for row in results["F2"].rows]
    assert classes == sorted(classes)
    assert "class" in results["F2"].notes[0]


def test_f3_flush_walkthrough_shows_moves_and_empty_buffers(results):
    result = results["F3"]
    reasons = {row[5] for row in result.rows}
    assert any(reason.startswith("flush:") for reason in reasons)
    assert "Invariant 2.4" in result.notes[-1]
