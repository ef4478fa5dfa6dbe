"""Serialization: determinism, round trips, rejection of bad values."""

import collections
import enum
import json
import math
import re

import pytest
from hypothesis import given, strategies as st

from repro.core.engine import events as ev
from repro.errors import CodecError
from repro.store import KVStore, codec

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


# The encoder before the prebuilt one, kept verbatim (walk first, then
# ``json.dumps``) as the reference the differential tests compare with.
_ALLOWED_SCALARS = (str, int, float, bool, type(None))


def _check(value, path):
    if isinstance(value, _ALLOWED_SCALARS):
        return
    if isinstance(value, (list, tuple)):
        for index, item in enumerate(value):
            _check(item, f"{path}[{index}]")
        return
    if isinstance(value, dict):
        for key, item in value.items():
            if not isinstance(key, str):
                raise CodecError(
                    f"non-string dict key {key!r} at {path}"
                )
            _check(item, f"{path}.{key}")
        return
    raise CodecError(
        f"value of type {type(value).__name__} at {path} is not serializable"
    )


def reference_encode(value):
    """Serialize ``value`` to canonical UTF-8 JSON bytes."""
    _check(value, "$")
    try:
        text = json.dumps(
            value, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except (TypeError, ValueError) as exc:
        raise CodecError(str(exc)) from exc
    return text.encode("utf-8")


def outcome(encoder, value):
    """The bytes ``encoder`` gives for ``value``, or its rejection message."""
    try:
        return encoder(value)
    except CodecError as exc:
        return f"CodecError: {exc}"


class Name(str):
    pass


class Count(int):
    pass


class Record(dict):
    pass


class Pair(tuple):
    pass


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


# Every kind of key and leaf the C encoder treats apart: keys it coerces
# (int, float, bool, None, inf, NaN), string keys that look coerced, text
# that looks like a key, values outside the model, and subclasses.
any_keys = st.one_of(
    st.text(max_size=6),
    st.sampled_from(["1", "true", "false", "null", "-2.5e3", '","1":',
                     Name("k")]),
    st.integers(min_value=-5, max_value=5),
    st.floats(width=32),
    st.booleans(),
    st.none(),
)
any_leaves = st.one_of(
    json_scalars,
    st.floats(),
    st.sampled_from(['","1":', Name("x"), Count(3), Level.HIGH,
                     True, math.inf, -math.inf]),
    st.frozensets(st.integers(), max_size=2),
    st.binary(max_size=2),
    st.builds(object),
)
any_values = st.recursive(
    any_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(children, max_size=3).map(Pair),
        st.dictionaries(any_keys, children, max_size=4),
        st.dictionaries(st.text(max_size=4), children, max_size=3)
        .map(Record),
        st.dictionaries(st.text(max_size=4), children, max_size=3)
        .map(collections.OrderedDict),
    ),
    max_leaves=20,
)

DIFFERENTIAL_CORPUS = [
    {1: 0}, {1.5: 0}, {True: 0}, {False: 0}, {None: 0},
    {math.inf: 0}, {-math.inf: 0}, {math.nan: 0},
    {1: 0, "a": 1}, {"a": 1, None: 0}, {"a": {2: "x", "b": 1}},
    {"1": 0}, {"true": 0}, {"false": 1}, {"null": 2}, {"-2.5e3": 3},
    {'","1":': '","1":'}, ['","1":', {"k": '","1":'}],
    {"a": [0, {"b": ({"c": {1, 2}},)}]}, {"a": {"b": [b"raw"]}},
    [{"x": [object()]}], {"a": [1.0, {"b": math.nan}]},
    math.nan, math.inf, -math.inf, [math.inf], {"a": -math.inf},
    {"b": math.nan, "a": {1: 0}}, {"a": math.nan, "b": set()},
    Name("s"), Count(7), {"n": Count(-1)}, Record(b=1, a=Name("x")),
    Pair((1, Pair((2,)))), Level.LOW, {"lvl": Level.HIGH, 3: Level.LOW},
    collections.OrderedDict(b=1, a=[2]), {Name("k"): Pair((1,))},
    {Level.LOW: "x"}, {Count(2): 0}, {(1, 2): 0}, {frozenset(): 0},
]


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


    @pytest.mark.parametrize("make", [
        pytest.param(lambda: _cycle([]), id="list"),
        pytest.param(lambda: _cycle({}), id="dict"),
        # Deeper than the C recursion limit of any interpreter.
        pytest.param(lambda: _nest(200_000), id="200000-deep"),
    ])
    def test_circular_or_too_deep_is_a_codec_error(self, make):
        with pytest.raises(CodecError) as excinfo:
            codec.encode(make())
        assert str(excinfo.value).startswith(
            "value is circular or nested too deeply")


def _cycle(container):
    if isinstance(container, list):
        container.append(container)
    else:
        container["self"] = container
    return container


def _nest(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


class TestDifferential:
    """The prebuilt encoder against the walk-then-dumps one it replaced:
    equal bytes, or a ``CodecError`` with an equal message from both."""

    @pytest.mark.parametrize("value", DIFFERENTIAL_CORPUS)
    def test_corpus(self, value):
        assert outcome(codec.encode, value) == outcome(reference_encode,
                                                       value)

    @given(json_values)
    def test_json_values(self, value):
        assert outcome(codec.encode, value) == outcome(reference_encode,
                                                       value)

    @given(any_values)
    def test_any_values(self, value):
        assert outcome(codec.encode, value) == outcome(reference_encode,
                                                       value)


class TestSuccessPath:
    """A value the encoder accepts is not walked unless the key screen
    hits."""

    @pytest.fixture
    def checks(self, monkeypatch):
        """The paths ``_check`` is called at, its recursion included."""
        calls = []
        real = codec._check

        def counting(value, path):
            calls.append(path)
            return real(value, path)

        monkeypatch.setattr(codec, "_check", counting)
        return calls

    def test_an_event_record_is_not_walked(self, checks):
        event = ev.instance_created(
            "all_vs_all", 3, {"db_name": "sp38", "granularity": 4,
                              "cutoff": 80.5, "tags": ["a", "b"]}, 12.25)
        store = KVStore()
        with store.transaction() as txn:
            txn.put("instances/i-1/events/0000000000", event)
            txn.put("instances/i-1/next_seq", 1)
        record = [["put", "instances/i-1/events/0000000000"], [event]]
        assert codec.encode(record) == reference_encode(record)
        assert checks == []

    def test_a_numeric_string_key_is_walked_once(self, checks):
        assert codec.encode({"1": 0}) == b'{"1":0}'
        assert checks.count("$") == 1

    def test_keys_outside_the_grammar_are_not_walked(self, checks):
        value = {"tree": 1, "nest": "1", "1a": True, "nulls": None,
                 "a": ['"1":', {"x": 'z","2":'}], "": -0.5}
        assert codec.encode(value) == reference_encode(value)
        assert checks == []

    def test_the_screen_is_the_key_grammar(self):
        grammar = re.compile(
            r'[{,]"(?:-?[0-9][0-9.eE+\-]*|true|false|null)":')
        texts = ['{"1":0}', '[{"a":0,"-2.5e3":1}]', '{"true":0}',
                 '{"nullx":0}', '{"tree":0}', '["1":', '{"a\\"1":0}',
                 '{"a":"x,\\"1\\":"}', '{"":0}', '{"e1":0}', '[0,"1"]']
        for text in texts:
            assert (codec._COERCED_KEY.search(text) is None) == (
                grammar.search(text) is None), text

    def test_a_non_string_key_is_still_rejected(self, checks):
        with pytest.raises(CodecError) as excinfo:
            codec.encode({1: 0})
        assert str(excinfo.value) == "non-string dict key 1 at $"


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

    def test_too_deep_is_a_codec_error(self):
        """Past the C recursion limit of the reading interpreter, which
        may be lower than the writing one's."""
        payload = b"[" * 200_000 + b"]" * 200_000
        with pytest.raises(CodecError):
            codec.decode(payload)
        with pytest.raises(CodecError):
            codec.decode_head(b"[" + payload + b"]")


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
