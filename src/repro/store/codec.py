"""Deterministic serialization for the persistent store.

Values are restricted to the JSON data model (plus tuples, which encode as
lists). Encoding is canonical — sorted keys, no whitespace — so identical
values always produce identical bytes, which the WAL checksums and the
round-trip property tests rely on.
"""

from __future__ import annotations

import json
from typing import Any

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


def encode(value: Any) -> bytes:
    """Serialize ``value`` to canonical UTF-8 JSON bytes."""
    _check(value, "$")
    try:
        text = json.dumps(
            value, sort_keys=True, separators=(",", ":"), allow_nan=False
        )
    except (TypeError, ValueError) as exc:
        raise CodecError(str(exc)) from exc
    return text.encode("utf-8")


def decode(data: bytes) -> Any:
    """Deserialize bytes produced by :func:`encode`."""
    try:
        return json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
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
    except ValueError as exc:
        raise CodecError(f"undecodable record head: {exc}") from exc
