"""Deterministic serialization for the persistent store.

Values are restricted to the JSON data model (plus tuples, which encode as
lists). Encoding is canonical — sorted keys, no whitespace, ASCII-escaped
text — so identical values always produce identical bytes, which the WAL
checksums and the round-trip property tests rely on.

The encoder decides validity; :func:`_check` only words a rejection. A
successful :func:`encode` is one call of a C encoder built once at import,
plus one regex search of its output. That encoder raises on every value
outside the model but one: it turns int, float, bool and ``None`` dict keys
into strings, which the store forbids. Such a key is written as ``"K":``
after a ``{`` or a ``,``, with ``K`` an int or float repr, ``true``,
``false`` or ``null``; the key screen matches exactly that form, so it
misses no coerced key. Inside a JSON string every quote is escaped, so a
match is always a whole object key; a string key such as ``"1"`` or
``"true"`` matches too, so a hit only sends the value to :func:`_check`,
which decides. When the encoder raises, :func:`_check` walks the value to
name the offending path; if it finds nothing (a NaN or an infinity), the
encoder's own message stands. How deep a value may nest is the
interpreter's C recursion limit, which the encoder and the decoder share:
deeper, or circular, is a :class:`CodecError` from either.
"""

from __future__ import annotations

import json
import re
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import Any, NoReturn

from ..errors import CodecError

_ALLOWED_SCALARS = (str, int, float, bool, type(None))


def _check(value: Any, path: str) -> None:
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


def _reject(value: Any) -> NoReturn:
    # Every type the encoder hands here is one _check rejects first, with
    # the path, so this message is never shown.
    raise TypeError(type(value).__name__)


# What json.dumps(sort_keys=True, separators=(",", ":"), allow_nan=False)
# builds afresh on every call. No markers dict: a shared one would keep
# the ids of an aborted encode and report false cycles later; a cycle is
# caught as a RecursionError instead.
_ENCODER = c_make_encoder(None, _reject, encode_basestring_ascii, None,
                          ":", ",", True, False, False)
# The key grammar ``[{,]"(?:-?[0-9][0-9.eE+\-]*|true|false|null)":``,
# anchored on the quote: the lookahead and lookbehind turn most quotes
# away before the alternation is tried, which scans ~3x faster than that
# spelling and matches at the same places.
_COERCED_KEY = re.compile(
    r'"(?=[-0-9fnt])(?<=[{,]")(?:-?[0-9][0-9.eE+\-]*|true|false|null)":')


def encode(value: Any) -> bytes:
    """Serialize ``value`` to canonical UTF-8 JSON bytes."""
    try:
        try:
            text = "".join(_ENCODER(value, 0))
        except (TypeError, ValueError) as exc:
            _check(value, "$")
            raise CodecError(str(exc)) from exc
        if _COERCED_KEY.search(text) is not None:
            _check(value, "$")
    except RecursionError as exc:
        raise CodecError("value is circular or nested too deeply") from exc
    return text.encode("utf-8")


def decode(data: bytes) -> Any:
    """Deserialize bytes produced by :func:`encode`."""
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise CodecError(f"undecodable record: {exc}") from exc


_PREFIX_DECODER = json.JSONDecoder()


def decode_head(data: bytes) -> Any:
    """Deserialize only the first element of the array ``data`` encodes,
    leaving the rest unparsed (the WAL record shape puts keys first)."""
    try:
        text = data.decode("utf-8")
        if text[:1] != "[":
            raise ValueError("not an array")
        return _PREFIX_DECODER.raw_decode(text, 1)[0]
    except (ValueError, RecursionError) as exc:
        raise CodecError(f"undecodable record head: {exc}") from exc
