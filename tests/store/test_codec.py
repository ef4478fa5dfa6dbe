"""Serialization: determinism, round trips, rejection of bad values."""

import collections
import json

import pytest
from hypothesis import given, strategies as st

from repro.errors import CodecError
from repro.store import codec

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2 ** 53), max_value=2 ** 53),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=40),
)

json_values = st.recursive(
    json_scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.dictionaries(st.text(max_size=10), children, max_size=5),
    ),
    max_leaves=25,
)


class TestEncode:
    def test_sorted_keys_are_canonical(self):
        assert codec.encode({"b": 1, "a": 2}) == codec.encode({"a": 2, "b": 1})

    def test_compact_output(self):
        assert codec.encode({"a": [1, 2]}) == b'{"a":[1,2]}'

    def test_tuple_encodes_as_list(self):
        assert codec.encode((1, 2)) == codec.encode([1, 2])

    def test_unicode(self):
        assert codec.decode(codec.encode("Zürich")) == "Zürich"

    def test_rejects_nan(self):
        with pytest.raises(CodecError):
            codec.encode(float("nan"))

    def test_rejects_infinity(self):
        with pytest.raises(CodecError):
            codec.encode(float("inf"))

    def test_rejects_non_string_keys(self):
        with pytest.raises(CodecError) as excinfo:
            codec.encode({1: "x"})
        assert "non-string" in str(excinfo.value)

    def test_rejects_objects(self):
        with pytest.raises(CodecError) as excinfo:
            codec.encode({"a": object()})
        assert "$.a" in str(excinfo.value)

    def test_rejects_nested_objects_with_path(self):
        with pytest.raises(CodecError) as excinfo:
            codec.encode({"a": [1, {"b": set()}]})
        assert "$.a[1].b" in str(excinfo.value)

    def test_rejections_keep_their_exact_messages(self):
        """Each rejection names the offending value's path."""
        deep = {"a": [0, {"b": ({"c": None},)}]}
        cases = [
            ({"a": [0, {"b": {2: "x"}}]},
             "non-string dict key 2 at $.a[1].b"),
            ({"a": [0, {"b": ({"c": {1, 2}},)}]},
             "value of type set at $.a[1].b[0].c is not serializable"),
            ({"a": {"b": [object()]}},
             "value of type object at $.a.b[0] is not serializable"),
            ({"a": b"raw"},
             "value of type bytes at $.a is not serializable"),
        ]
        assert codec.encode(deep) == b'{"a":[0,{"b":[{"c":null}]}]}'
        for value, message in cases:
            with pytest.raises(CodecError) as excinfo:
                codec.encode(value)
            assert str(excinfo.value) == message

    def test_nan_at_depth_is_rejected_by_the_encoder(self):
        nan = float("nan")
        with pytest.raises(ValueError) as expected:
            json.dumps(nan, allow_nan=False)
        with pytest.raises(CodecError) as excinfo:
            codec.encode({"a": [1.0, {"b": nan}]})
        assert str(excinfo.value) == str(expected.value)

    def test_subclasses_of_allowed_types_still_encode(self):
        """Validity is decided by ``isinstance``, not by exact type."""
        class Name(str):
            pass

        value = collections.OrderedDict(b=Name("x"), a=True)
        assert codec.encode(value) == b'{"a":true,"b":"x"}'


class TestDecode:
    def test_round_trip_simple(self):
        value = {"x": [1, 2.5, None, True, "s"]}
        assert codec.decode(codec.encode(value)) == value

    def test_garbage_raises(self):
        with pytest.raises(CodecError):
            codec.decode(b"\xff\xfe not json")

    def test_truncated_raises(self):
        payload = codec.encode({"a": 1})
        with pytest.raises(CodecError):
            codec.decode(payload[:-2])


class TestProperties:
    @given(json_values)
    def test_round_trip(self, value):
        decoded = codec.decode(codec.encode(value))
        # tuples become lists; normalize before comparing
        def normalize(v):
            if isinstance(v, tuple):
                v = list(v)
            if isinstance(v, list):
                return [normalize(i) for i in v]
            if isinstance(v, dict):
                return {k: normalize(i) for k, i in v.items()}
            return v
        assert decoded == normalize(value)

    @given(json_values)
    def test_deterministic(self, value):
        assert codec.encode(value) == codec.encode(value)
