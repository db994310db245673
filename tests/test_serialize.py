import csv
import io
import json
import math

import pytest

from dichotomy.errors import DomainError
from dichotomy.serialize import csv_line, json_dumps


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_json_refuses_non_finite(bad):
    with pytest.raises(DomainError, match="JSON"):
        json_dumps({"ok": [1.0, 2], "nested": {"x": [0.5, bad]}})


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
