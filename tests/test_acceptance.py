"""One test per acceptance criterion.

Each test runs its criterion through maxprob.acceptance.run_criterion at
its stated tolerance and budget, prints the criterion's PASS/FAIL line,
and asserts the result, so `pytest -v` on this file doubles as the release
gate (the `maxprob check` subcommand runs the same CRITERIA table).
"""

import reference
from maxprob import acceptance


def _run(number: int, artifacts_dir=None) -> None:
    result = acceptance.run_criterion(number, artifacts_dir)
    print(result.line)
    assert result.passed, result.line


def test_criterion_01_coin_flip_bound_values():
    _run(1)


def test_criterion_02_bound_vs_enumeration():
    _run(2)


def test_criterion_03_refinement_tightens_the_bound():
    _run(3)


def test_criterion_04_soft_bound_ordering_and_limit():
    _run(4)


def test_criterion_05_gradients_match_finite_differences():
    _run(5)


def test_criterion_06_alpha_one_equivalence():
    _run(6)


def test_criterion_07_intersection_recovers_the_oracle():
    _run(7)


def test_criterion_08_likelihood_ascent_concentrates_mass():
    _run(8)


def test_criterion_09_generalized_head_identities():
    _run(9)


def test_criterion_10_toy_backprop_matches_finite_differences():
    _run(10)


def test_criterion_11_toy_training_behaves_and_reproduces(tmp_path, monkeypatch):
    """Also: its training-curve artifact has csv.writer's bytes for the same reports."""
    train, reports = acceptance.train, []

    def recording_train(*args, **kwargs):
        reports.append(train(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr(acceptance, "train", recording_train)
    _run(11, str(tmp_path / "artifacts"))
    written = [*reports[:3], reports[4]]  # alpha 1, 2, 4 and the ce-l2 baseline, not the rerun
    expected = reference.csv_text(
        ["mode", "alpha", "epoch", "train_loss", "test_loss", "train_acc", "test_acc",
         "reg_term"], reference.training_curve_rows(written))
    assert (tmp_path / "artifacts" / "toy_training_curves.csv").read_bytes() == expected.encode()


def test_criterion_12_seeded_outputs_reproduce():
    _run(12)
