import json
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pinkey import (ModelFormatError, PinModel, SizeLimitError, base_scale, dumps_model,
                    load_model, loads_model)
from pinkey.value import replace

from helpers import random_exact_model, random_pmf_model, reference_loads_model

VALID = """
{
  "terminals": 3,
  "weights": [
    {"i": 1, "j": 2, "value": "3/2"},
    {"i": 2, "j": 3, "value": 1}
  ]
}
"""


def test_loads_exact_model():
    model = loads_model(VALID)
    assert model.exact
    assert model.m == 3
    assert model.weight(1, 2) == Fraction(3, 2)
    assert model.weight(2, 3) == 1
    assert model.weight(1, 3) == 0


def test_load_from_path(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(VALID, encoding="utf-8")
    assert load_model(path).weight(1, 2) == Fraction(3, 2)


def test_pmf_only_file_is_float_mode():
    text = """
    {
      "terminals": 2,
      "pmfs": [
        {"i": 1, "j": 2, "rows": 2, "cols": 2,
         "probs": [0.5, 0.0, 0.0, 0.5]}
      ]
    }
    """
    model = loads_model(text)
    assert not model.exact
    assert model.mi(1, 2) == pytest.approx(1.0)


def test_round_trip_exact():
    model = random_exact_model(random.Random(3), m=4)
    again = loads_model(dumps_model(model))
    assert again.m == model.m
    assert again.weights == model.weights


def test_round_trip_float():
    model = random_pmf_model(random.Random(4), m=3)
    again = loads_model(dumps_model(model))
    assert not again.exact
    for pair in model.pairs():
        assert again.mi(*pair) == pytest.approx(model.mi(*pair), abs=1e-12)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("[]", "object"),
        ('{"terminals": 3}', "weights"),
        ('{"terminals": 3, "weights": [], "extra": 1}', "unknown top-level"),
        ('{"terminals": 1, "weights": []}', ">= 2"),
        ('{"terminals": "3", "weights": []}', "integer"),
        ('{"terminals": 2, "weights": [{"i":1,"j":2,"value":1,"x":0}]}',
         "unknown fields"),
        ('{"terminals": 2, "weights": [{"i":1,"j":2}]}', "exactly fields"),
        ('{"terminals": 2, "weights": [{"i":1,"j":1,"value":1}]}', "self-pair"),
        ('{"terminals": 2, "weights": [{"i":1,"j":3,"value":1}]}', "outside"),
        ('{"terminals": 2, "weights": [{"i":1,"j":2,"value":"-1/2"}]}',
         "negative"),
        ('{"terminals": 2, "weights": [{"i":1,"j":2,"value":"1.5"}]}',
         "malformed"),
        ('{"terminals": 2, "weights": [{"i":1,"j":2,"value":1},'
         '{"i":2,"j":1,"value":1}]}', "duplicate"),
        ('{"terminals": 2, "pmfs": [{"i":1,"j":2,"rows":2,"cols":2,'
         '"probs":[1.0,0.0,0.0]}]}', "length"),
        ('{"terminals": 2, "pmfs": [{"i":1,"j":2,"rows":1,"cols":2,'
         '"probs":[0.9,0.2]}]}', "sum"),
        ('{"terminals": 2, "pmfs": [{"i":1,"j":2,"rows":1,"cols":1,'
         '"probs":[1.0],"why":0}]}', "unknown fields"),
        ("not json", "JSON"),
    ],
)
def test_rejections(text, fragment):
    with pytest.raises(ModelFormatError) as err:
        loads_model(text)
    assert fragment.lower() in str(err.value).lower()


def test_integer_literal_past_the_digit_limit_is_a_format_error():
    # json.loads raises a bare ValueError for an int of more than 4300 digits
    text = '{"terminals": ' + "1" * 5001 + ', "weights": []}'
    with pytest.raises(ModelFormatError, match="^not valid JSON: "):
        loads_model(text)
    assert _outcome(loads_model, text) == _outcome(reference_loads_model, text)


def test_weight_pmf_mismatch_rejected():
    text = """
    {
      "terminals": 2,
      "weights": [{"i": 1, "j": 2, "value": "1/2"}],
      "pmfs": [{"i": 1, "j": 2, "rows": 2, "cols": 2,
                "probs": [0.5, 0.0, 0.0, 0.5]}]
    }
    """
    with pytest.raises(ModelFormatError):
        loads_model(text)


# Record parts for the loader property below: valid values, and malformed
# values, ends and record shapes, each drawn about one time in ten, so that
# a malformed file usually fails past its first record.
_VALUES = st.integers(0, 5) | st.sampled_from(
    ["1/2", "3/2", "7", "0/5", "-0", "-0/3", "007/010", "12/8"])
_BAD_VALUES = st.sampled_from(
    [True, False, 1.5, -1, "-1/2", "-3/6", "1/0", "1" * 4301, "1/" + "2" * 4301,
     "x", None, [], {}, " 3", "+3", "1_0", "\u0663", "3/ 2", "1/2/3", "1.5", ""])
_BAD_ENDS = st.sampled_from([True, False, 1.0, "1", None, [1], -1, 99])
_PROBS = st.sampled_from([[0.5, 0.0, 0.0, 0.5], [0.25] * 4, [1.0, 0, 0, 0]])
_BAD_RECORDS = st.sampled_from([[], [1, 2], 3, "i", None, True])


def _rarely(draw) -> bool:
    return draw(st.sampled_from([False] * 9 + [True]))


@st.composite
def _record(draw, kind, m, pair):
    i, j = pair if draw(st.booleans()) else pair[::-1]
    if _rarely(draw):  # a self-pair or an end outside 1..m
        i, j = draw(st.sampled_from([(i, i), (i, m + 1), (m + 1, j), (0, j)]))
    record = {"i": draw(_BAD_ENDS) if _rarely(draw) else i,
              "j": draw(_BAD_ENDS) if _rarely(draw) else j}
    if kind == "weights":
        record["value"] = draw(_BAD_VALUES if _rarely(draw) else _VALUES)
    else:
        record.update(rows=2, cols=2, probs=draw(_PROBS))
    if _rarely(draw):
        shape = draw(st.sampled_from(["extra", "missing", "other"]))
        if shape == "extra":
            record["extra"] = 1
        elif shape == "missing":
            del record[draw(st.sampled_from(sorted(record)))]
        else:
            record = draw(_BAD_RECORDS)
    return record


@st.composite
def _model_document(draw):
    m = draw(st.integers(2, 5))
    terminals = draw(st.sampled_from([1, 0, 257, True, 3.0, "3", None])) if (
        _rarely(draw)) else m
    doc = {"terminals": terminals}
    all_pairs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    for kind in draw(st.sampled_from([("weights",)] * 3 + [("weights", "pmfs"),
                                                          ("pmfs",)])):
        pairs = draw(st.permutations(all_pairs))[:draw(st.integers(0, len(all_pairs)))]
        if pairs and _rarely(draw):  # a duplicate, maybe reversed
            pairs.insert(draw(st.integers(0, len(pairs))), draw(st.sampled_from(pairs)))
        doc[kind] = [draw(_record(kind, m, pair)) for pair in pairs]
        if _rarely(draw):
            doc[kind] = {"i": 1}
    return json.dumps(doc)


def _outcome(load, text):
    try:
        model = load(text)
    except (ModelFormatError, SizeLimitError) as exc:
        return type(exc), str(exc)
    if model.weights is not None:
        assert all(type(w) is Fraction for w in model.weights.values())
    return model


@settings(max_examples=400, deadline=None)
@given(_model_document())
def test_loader_matches_the_reference(text):
    # the same model, or the same error with the same message
    assert _outcome(loads_model, text) == _outcome(reference_loads_model, text)


@pytest.mark.parametrize("value,weight", [
    ("-0", 0), ("-0/3", 0), ("007/010", Fraction(7, 10)), (0, 0),
    ("12/8", Fraction(3, 2))])
def test_leading_zeros_and_negative_zero_load(value, weight):
    text = json.dumps({"terminals": 2, "weights": [{"i": 2, "j": 1, "value": value}]})
    assert loads_model(text).weight(1, 2) == weight


# pmf tables with the weight they carry, and JSON forms of that weight
_PMF_WEIGHTS = [([0.5, 0.0, 0.0, 0.5], [1, "1", "2/2", "007/7"]),
                ([0.25] * 4, [0, "0", "-0", "0/5"])]


@st.composite
def _valid_model_file(draw):
    """A valid exact model file, and about half the time a mixed one: some
    pairs carry a pmf and a weight that matches it."""
    m = draw(st.integers(2, 5))
    all_pairs = [(i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1)]
    weighted = draw(st.permutations(all_pairs))[:draw(st.integers(0, len(all_pairs)))]
    values = {pair: draw(_VALUES | st.sampled_from(["1/3", "5/6", "9/12", "11/7"]))
              for pair in weighted}
    pmfs = []
    if draw(st.booleans()):
        for pair in draw(st.permutations(all_pairs))[:draw(st.integers(1, len(all_pairs)))]:
            probs, forms = draw(st.sampled_from(_PMF_WEIGHTS))
            if pair in values or forms[0]:
                values[pair] = draw(st.sampled_from(forms))
            pmfs.append({"i": pair[1], "j": pair[0], "rows": 2, "cols": 2, "probs": probs})
    doc = {"terminals": m,
           "weights": [{"i": i, "j": j, "value": value} for (i, j), value in values.items()]}
    if pmfs:
        doc["pmfs"] = pmfs
    return json.dumps(doc)


@settings(max_examples=200, deadline=None)
@given(_valid_model_file())
def test_loaded_model_equals_the_one_built_from_fractions(text):
    model = loads_model(text)
    reference = reference_loads_model(text)
    expected = PinModel.from_weights(reference.m, reference.weights, reference.pmfs)
    # the loader builds the integer form only
    assert "_weights" not in vars(model)
    assert model.base_weights == expected.base_weights
    assert base_scale(model) == base_scale(expected)
    assert model == expected and hash(model) == hash(expected)
    assert all(type(w) is Fraction for w in model.weights.values())
    assert model.weights == expected.weights
    assert pickle.loads(pickle.dumps(model)) == model
    assert replace(model) == model
    assert replace(model, pmfs={}) == PinModel.from_weights(model.m, expected.weights)


def test_from_base_weights_checks_the_integer_table():
    model = PinModel.from_base_weights(3, 6, {(1, 2): 3, (2, 3): 8})
    assert model == PinModel.from_weights(3, {(1, 2): Fraction(1, 2), (2, 3): Fraction(4, 3)})
    assert model.base_weights == {(1, 2): 3, (1, 3): 0, (2, 3): 8}
    for n0, base, message in [
            (6, {(1, 2): 3, (2, 3): 9}, "not the least scale"),
            (0, {(1, 2): 1}, "not a positive integer"),
            (True, {(1, 2): 1}, "not a positive integer"),
            (1, {(2, 1): 1}, "not a pair i < j"),
            (1, {(1, 4): 1}, "not a pair i < j"),
            (1, {(1, 2): -1}, "not an int >= 0"),
            (2, {(1, 2): Fraction(1)}, "not an int >= 0")]:
        with pytest.raises(ValueError, match=message):
            PinModel.from_base_weights(3, n0, base)
