import json
from fractions import Fraction

import pytest

from conftest import S1, S4
from seqcover import (
    ANOMALY,
    NORMAL,
    ConfigurationError,
    DetectorConfig,
    Sequence,
    anomaly_score,
    classify,
    score_batch,
)


def test_default_sigma_is_exact():
    assert DetectorConfig().sigma == Fraction(97, 100)


def test_sigma_accepts_decimal_strings_and_floats():
    assert DetectorConfig("0.5").sigma == Fraction(1, 2)
    assert DetectorConfig(0.97).sigma == Fraction(97, 100)


def test_sigma_range_checked():
    with pytest.raises(ConfigurationError):
        DetectorConfig(Fraction(3, 2))
    with pytest.raises(ConfigurationError):
        DetectorConfig(-0.1)


@pytest.mark.parametrize("sigma", [float("nan"), float("inf"), "abc"])
def test_sigma_without_finite_rational_rejected(sigma):
    with pytest.raises(ConfigurationError, match="sigma must be a finite number"):
        DetectorConfig(sigma)


def test_substring_classifies_normal(reference_model):
    scored = classify(reference_model, DetectorConfig(), Sequence(S1.symbols[2:7], "frag"))
    assert scored.similarity == 1
    assert scored.verdict == NORMAL


def test_worked_anomaly(reference_model):
    scored = classify(reference_model, DetectorConfig(), S4)
    assert scored.similarity == Fraction(9, 16)
    assert scored.verdict == ANOMALY
    assert scored.covering.size == 8


def test_threshold_floor_accepts_everything(reference_model):
    config = DetectorConfig(0)
    scored = classify(reference_model, config, Sequence((99, 98, 97), "junk"))
    assert scored.verdict == NORMAL


def test_threshold_boundary_inclusive(reference_model):
    # S4 scores exactly 9/16; sigma at that value must classify normal
    config = DetectorConfig(Fraction(9, 16))
    assert classify(reference_model, config, S4).verdict == NORMAL
    config = DetectorConfig(Fraction(9, 16) + Fraction(1, 1000))
    assert classify(reference_model, config, S4).verdict == ANOMALY


def test_sigma_one_accepts_only_exact_substrings(reference_model):
    config = DetectorConfig(1)
    assert classify(reference_model, config, Sequence(S1.symbols[:5], "f")).verdict == NORMAL
    assert classify(reference_model, config, S4).verdict == ANOMALY


def test_threshold_monotonicity(reference_model):
    scored = classify(reference_model, DetectorConfig(0.2), S4)
    stricter = classify(reference_model, DetectorConfig(0.9), S4)
    assert not (scored.verdict == ANOMALY and stricter.verdict == NORMAL)


def test_empty_sequence_is_normal_for_any_sigma(reference_model):
    scored = classify(reference_model, DetectorConfig(1), Sequence((), "eps"))
    assert scored.similarity == 1
    assert scored.verdict == NORMAL
    assert scored.covering.size == 0


def test_verdict_recomputable_from_score(reference_model):
    config = DetectorConfig(0.8)
    for s in (S1, S4, Sequence((42,), "solo")):
        scored = classify(reference_model, config, s)
        assert scored.verdict == (NORMAL if scored.similarity >= config.sigma else ANOMALY)


def test_score_batch_empty(reference_model):
    assert score_batch(reference_model, DetectorConfig(), []) == []


def test_score_batch_matches_classify_and_permutes(reference_model):
    config = DetectorConfig()
    batch = [S4, Sequence(S1.symbols[:4], "f"), Sequence((5, 6), "x")]
    scored = score_batch(reference_model, config, batch)
    assert scored == [classify(reference_model, config, s) for s in batch]
    reversed_scores = score_batch(reference_model, config, batch[::-1])
    assert reversed_scores == scored[::-1]


def test_record_serializes_exact_rational(reference_model):
    scored = classify(reference_model, DetectorConfig(), S4)
    record = scored.as_record()
    assert record["similarity"] == "9/16"
    assert record["similarity_decimal"] == "0.562500"
    assert record["covering_size"] == 8
    assert record["verdict"] == ANOMALY
    assert json.dumps(record)  # JSON-ready


def test_anomaly_score_flips_scale():
    assert anomaly_score(Fraction(9, 16)) == Fraction(7, 16)
    assert anomaly_score(Fraction(1)) == 0
