"""Canonical JSON layer: byte stability and faithful re-parsing."""

import json
from fractions import Fraction as F

import pytest

from slopelab.errors import PreconditionError
from slopelab.polygon import np_make
from slopelab.serialize import canonical_dumps, np_from_json


def test_canonical_dumps_is_insert_order_independent():
    a = canonical_dumps({"b": 1, "a": [2, 3], "c": {"y": 0, "x": 1}})
    b = canonical_dumps({"c": {"x": 1, "y": 0}, "a": [2, 3], "b": 1})
    assert a == b == '{"a":[2,3],"b":1,"c":{"x":1,"y":0}}\n'


def test_canonical_dumps_round_trips():
    payload = {"verdict": "large", "pieces": [0, 1, 3], "slope": "1/3"}
    assert json.loads(canonical_dumps(payload)) == payload


def test_np_round_trip():
    np0 = np_make([(F(1, 3), 3), (F(2, 3), 3)])
    assert np_from_json(np0.to_json()) == np0
    assert np_from_json(json.loads(canonical_dumps(np0.to_json()))) == np0


def test_np_from_json_revalidates():
    # decreasing slopes never deserialize into a polygon
    bad = {"segments": [{"slope": "2/3", "width": 3},
                        {"slope": "1/3", "width": 3}]}
    with pytest.raises(PreconditionError):
        np_from_json(bad)
