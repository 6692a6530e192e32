import pytest

from hilite.errors import ConfigError, StructureError
from hilite.rewards import (
    RewardSpec,
    accuracy,
    composite,
    em,
    hr_at_k,
    ndcg_at_k,
    normalize_answer,
    token_f1,
)


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------


def test_normalize_drops_articles_punctuation_case():
    assert normalize_answer("The Cat.") == "cat"


def test_normalize_empty():
    assert normalize_answer("") == ""


def test_normalize_number_with_comma():
    assert normalize_answer("35,124 people") == "35124 people"


# ---------------------------------------------------------------------------
# em / token F1
# ---------------------------------------------------------------------------


def test_em_f1_identity():
    assert em("severe fatigue", "severe fatigue") == 1.0
    assert token_f1("severe fatigue", "severe fatigue") == 1.0


def test_f1_partial_overlap():
    # precision 1, recall 1/2 -> harmonic mean 2/3
    assert token_f1("fatigue", "severe fatigue") == pytest.approx(2 / 3)


def test_empty_vs_nonempty():
    assert em("", "x") == 0.0
    assert token_f1("", "x") == 0.0
    assert token_f1("", "") == 1.0


def test_em_implies_f1():
    cases = [("The Cat.", "the cat"), ("35,124", "35124"), ("a b c", "b c a")]
    for pred, gold in cases:
        if em(pred, gold) == 1.0:
            assert token_f1(pred, gold) == 1.0


# ---------------------------------------------------------------------------
# ranking metrics
# ---------------------------------------------------------------------------


def test_ndcg_rank_one_is_best():
    assert ndcg_at_k([5, 1, 2], 5, 10) == 1.0


def test_missing_gold_scores_zero():
    assert hr_at_k([1, 2, 3], 9, 3) == 0.0
    assert ndcg_at_k([1, 2, 3], 9, 3) == 0.0


def test_ndcg_rank_three():
    assert ndcg_at_k([7, 8, 42, 9], 42, 10) == pytest.approx(0.5)


def test_duplicate_ids_rejected():
    with pytest.raises(StructureError):
        hr_at_k([1, 1, 2], 1, 3)
    with pytest.raises(StructureError):
        ndcg_at_k([1, 1], 1, 2)


def test_rank_metrics_ignore_order_below_gold():
    ranking_a = [3, 1, 7, 5, 9]
    ranking_b = [3, 1, 9, 5, 7]  # permuted strictly below gold at rank 2
    assert hr_at_k(ranking_a, 1, 5) == hr_at_k(ranking_b, 1, 5)
    assert ndcg_at_k(ranking_a, 1, 5) == ndcg_at_k(ranking_b, 1, 5)


# ---------------------------------------------------------------------------
# composite
# ---------------------------------------------------------------------------

BEAUTY = RewardSpec((("hr", 0.7), ("ndcg", 0.3)), k=10)
QA = RewardSpec((("f1", 0.5), ("em", 0.5)))


def test_composite_recommendation_weights():
    # gold at rank 3 of 10: HR=1, NDCG=0.5 -> 0.7*1 + 0.3*0.5
    ranking = [4, 9, 77] + list(range(10, 17))
    assert composite(ranking, 77, BEAUTY) == pytest.approx(0.85)


def test_composite_zero_components():
    assert composite([1, 2, 3], 99, BEAUTY) == 0.0


def test_composite_qa_weights():
    # F1=0.8, EM=0 -> 0.5*0.8 = 0.4
    pred, gold = "blue whale song", "blue whale"
    assert token_f1(pred, gold) == pytest.approx(0.8)
    assert em(pred, gold) == 0.0
    assert composite(pred, gold, QA) == pytest.approx(0.4)


def test_composite_unknown_metric_rejected():
    with pytest.raises(ConfigError):
        composite("x", "x", RewardSpec((("bleu", 1.0),)))


def test_reward_spec_rejects_unknown_metric_at_config_time():
    with pytest.raises(ConfigError):
        RewardSpec.parse("bleu:1")


def test_composite_none_output_is_zero():
    assert composite(None, "x", QA) == 0.0


def test_composite_linear_in_weights():
    spec1 = RewardSpec((("em", 1.0),))
    spec2 = RewardSpec((("em", 2.0),))
    assert composite("a", "a", spec2) == 2 * composite("a", "a", spec1)


@pytest.mark.parametrize("weight", ["nan", "inf", "-inf"])
def test_reward_spec_rejects_non_finite_weight(weight):
    with pytest.raises(ConfigError, match="'f1'"):
        RewardSpec.parse(f"em:1,f1:{weight}")


@pytest.mark.parametrize("k", [0, -3])
def test_reward_spec_rejects_k_below_one(k):
    with pytest.raises(ConfigError, match="reward_k"):
        RewardSpec.parse("hr:1", k=k)


def test_reward_spec_parse():
    spec = RewardSpec.parse("f1:0.5,em:0.5")
    assert spec.terms == (("f1", 0.5), ("em", 0.5))
    with pytest.raises(ConfigError):
        RewardSpec.parse("em:-1")


# ---------------------------------------------------------------------------
# classification metrics
# ---------------------------------------------------------------------------


def test_perfect_predictions():
    golds = ["yes", "no", "maybe", "yes"]
    assert accuracy(golds, golds) == 1.0


def test_single_class_predictions_on_balanced_golds():
    golds = ["yes", "no", "maybe"]
    preds = ["yes", "yes", "yes"]
    assert accuracy(preds, golds) == pytest.approx(1 / 3)


def test_empty_inputs_are_zero_with_warning(caplog):
    assert accuracy([], []) == 0.0


def test_out_of_label_prediction_counts_as_wrong():
    golds = ["yes", "no"]
    preds = ["banana", "no"]
    assert accuracy(preds, golds) == pytest.approx(0.5)


def test_all_metrics_bounded():
    import random

    rng = random.Random(0)
    for _ in range(200):
        pred = " ".join(rng.choice("abcde") for _ in range(rng.randint(0, 4)))
        gold = " ".join(rng.choice("abcde") for _ in range(rng.randint(0, 4)))
        for value in (em(pred, gold), token_f1(pred, gold)):
            assert 0.0 <= value <= 1.0
