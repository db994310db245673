import csv
import io
import json
import math

import numpy as np
import pytest

from dichotomy.errors import DomainError
from dichotomy.serialize import csv_line, csv_lines, fmt_float, json_dumps


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_json_refuses_non_finite(bad):
    with pytest.raises(DomainError, match="JSON"):
        json_dumps({"ok": [1.0, 2], "nested": {"x": [0.5, bad]}})


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_float_lists_refuse_non_finite_as_items_do(bad):
    floats = [0.5, bad, 0.5, -bad]
    with pytest.raises(DomainError) as whole:
        json_dumps(floats)
    with pytest.raises(DomainError) as item:
        json_dumps(floats + [None])  # not all floats: emitted item by item
    assert str(whole.value) == str(item.value)


def _float_lists():
    rng = np.random.default_rng(22)
    tiny = 2.2250738585072014e-308
    yield rng.standard_normal(500) * 10.0 ** rng.integers(-300, 300, 500)
    yield rng.choice([0.0, -0.0, 0.1, -0.1, 5e-324, -5e-324, tiny / 3, 1.0], 500)
    yield np.full(300, -0.0)
    yield np.r_[0.0, np.full(10, 0.25)]
    yield rng.random(2000).round(2)  # few distinct values, repeated
    yield (rng.random(300) * tiny).astype(float)  # subnormals


@pytest.mark.parametrize("values", list(_float_lists()))
def test_float_lists_match_the_item_by_item_path(values):
    floats = values.tolist()
    # A trailing None sends the list item by item through the general path.
    assert json_dumps(floats)[:-1] + ", null]" == json_dumps(floats + [None])
    assert json_dumps(tuple(floats)) == json_dumps(floats)
    assert json.loads(json_dumps(floats)) == floats


@pytest.mark.parametrize(
    "text", ["two\nlines", "tab\there", "soh\x01", "nul\x00", "us\x1f", 'quote" back\\', "é"]
)
def test_json_strings_round_trip(text):
    # json.loads rejects raw control characters inside strings.
    obj = {text: [text, "plain"]}
    assert json.loads(json_dumps(obj)) == obj


def test_json_finite_floats_round_trip():
    obj = {"a": 0.1, "b": [1e-300, -2.5e307], "c": None, "d": True}
    assert json.loads(json_dumps(obj)) == obj


@pytest.mark.parametrize(
    "label", ["plain", "a,b", 'say "hi"', "two\nlines", "cr\rhere", ""]
)
def test_csv_strings_survive_a_reader(label):
    line = csv_line([label, 0.5, True, 3, math.nan])
    (row,) = csv.reader(io.StringIO(line + "\n"))
    assert row == [label, "0.5", "true", "3", "nan"]


def test_csv_leaves_plain_fields_unquoted():
    assert csv_line(["p1", 0.1, False, 7]) == "p1,0.10000000000000001,false,7"


@pytest.mark.parametrize(
    "x, text",
    [
        (math.nan, "nan"), (-math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"),
        (-0.0, "-0"), (0.0, "0"), (5e-324, "4.9406564584124654e-324"),
        (2.2250738585072014e-308 / 3, "7.4169128616906696e-309"),
        (1.7976931348623157e308, "1.7976931348623157e+308"), (0.1, "0.10000000000000001"),
        (np.float64(-2.5), "-2.5"), (np.longdouble(0.1), "0.10000000000000001"), (3, "3"),
    ],
)
def test_float_text(x, text):
    assert fmt_float(x) == text


def test_columns_follow_the_line_rule():
    floats = np.array([0.1, -0.0, math.nan, -math.inf, 5e-324])
    flags = np.array([True, False, True, False, False])
    labels = np.array(["p1", "a,b", 'say "hi"', "x", ""], dtype=object)
    counts = np.arange(5)
    columns = [0.25, floats, flags, labels, "same", counts, False]
    rows = [[0.25, *fields, "same", int(k), False] for k, fields in
            zip(counts, zip(floats.tolist(), flags.tolist(), labels.tolist()))]
    assert csv_lines(columns) == [csv_line(r) for r in rows]
