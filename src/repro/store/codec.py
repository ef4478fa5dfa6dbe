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


def _valid(value: Any) -> bool:
    """:func:`_check`'s rules by exact type and without the path: a
    ``False`` (also for a subclass of an allowed type) sends the value
    through :func:`_check`, which decides and words the error."""
    kind = type(value)
    if (kind is str or kind is int or kind is float or kind is bool
            or value is None):
        return True
    if kind is list or kind is tuple:
        for item in value:
            if not _valid(item):
                return False
        return True
    if kind is dict:
        for key, item in value.items():
            if type(key) is not str or not _valid(item):
                return False
        return True
    return False


def encode(value: Any) -> bytes:
    """Serialize ``value`` to canonical UTF-8 JSON bytes."""
    if not _valid(value):
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
