"""Canonical encoding and wire-size estimation for protocol payloads.

The distributed auctioneer needs two serialisation services:

* ``canonical_encode`` — a *deterministic* byte encoding of a payload, used to hash
  values for commitments (common coin) and to compare values exchanged by the
  input-validation and data-transfer blocks.  Two structurally equal payloads always
  encode to the same bytes, regardless of dict insertion order.
* ``estimate_size`` — a cheap estimate of the number of bytes a payload would occupy
  on the wire, used by bandwidth-aware latency models and traffic accounting.

Only plain data (numbers, strings, bytes, bools, None, tuples/lists, dicts, and
dataclasses composed of those) is supported; this keeps the encoding portable and
prevents accidentally shipping live objects between nodes.
"""

from __future__ import annotations

import dataclasses
import functools
import struct
from typing import Any, Dict, Tuple

__all__ = ["canonical_encode", "estimate_size", "FrozenDict", "UnsupportedPayloadError"]

#: Per-type cache of (field names, frozen?) — ``dataclasses.fields`` is expensive
#: and payload types are few, while payload *instances* number in the hundreds of
#: thousands per simulated round.
_DATACLASS_INFO: Dict[type, Tuple[Tuple[str, ...], bool]] = {}

#: Attributes under which an instance's wire size and canonical bytes are memoised.
_SIZE_ATTR = "_repro_wire_size"
_BYTES_ATTR = "_repro_canonical"


def _dataclass_info(cls: type) -> Tuple[Tuple[str, ...], bool]:
    info = _DATACLASS_INFO.get(cls)
    if info is None:
        names = tuple(f.name for f in dataclasses.fields(cls))
        frozen = bool(getattr(cls, "__dataclass_params__").frozen)
        info = (names, frozen)
        _DATACLASS_INFO[cls] = info
    return info


class UnsupportedPayloadError(TypeError):
    """Raised when a payload contains a type that cannot be canonically encoded."""


def _immutable(self, *args, **kwargs):
    raise TypeError(f"{type(self).__name__} is immutable")


class FrozenDict(dict):
    """A ``dict`` whose mutators raise.

    It compares, iterates, encodes and sizes exactly like the plain ``dict``
    it was built from (and stays unhashable, like one), but because it cannot
    change, its wire size and canonical bytes are memoised once its keys and
    values are deep-immutable too.  Protocol blocks use it for payloads they
    broadcast and then share between echo views.
    """

    __setitem__ = __delitem__ = __ior__ = _immutable
    clear = pop = popitem = setdefault = update = _immutable

    def __reduce__(self):
        return (type(self), (dict(self),))

    @functools.cached_property
    def values_hashable(self) -> bool:
        """True if every value hashes (so equal values count as one vote)."""
        try:
            hash(tuple(self.values()))
        except TypeError:
            return False
        return True


def _encode_float(value: float) -> bytes:
    # Canonical IEEE-754 big-endian encoding; avoids repr() instability.
    return b"f" + struct.pack(">d", float(value))


def _encode_number(value) -> bytes:
    """Encode numbers by numeric value, not representation.

    Payloads are compared structurally with ``==``, under which ``False == 0 ==
    0.0`` — so numerically equal values must encode to the same bytes or the
    validation blocks would flag equal payloads as disagreeing.  Bools collapse
    to ints; ints exactly representable as a double use the float encoding (so
    ``1 == 1.0`` agrees); ``-0.0`` normalises to ``0.0``.
    """
    if isinstance(value, bool):
        value = int(value)
    if isinstance(value, int):
        try:
            as_float = float(value)
        except OverflowError:
            as_float = None
        if as_float is not None and as_float == value:
            return _encode_float(as_float)
        data = str(value).encode("ascii")
        return b"i" + len(data).to_bytes(4, "big") + data
    if value == 0.0:
        value = 0.0  # collapse -0.0, which compares equal to 0.0
    return _encode_float(value)


def canonical_encode(value: Any) -> bytes:
    """Return a deterministic byte encoding of ``value``.

    Supported types: None, bool, int, float, str, bytes, list, tuple, dict (with
    sortable keys), sets (sorted), and dataclasses (encoded as a tagged dict of
    their fields).

    The bytes of deep-immutable frozen dataclass instances and
    :class:`FrozenDict` values are memoised on the instance, under the same
    rule as :func:`estimate_size`'s size memo: every provider digests the same
    bid objects, so only the first digest of a round walks them.

    Raises:
        UnsupportedPayloadError: if the value (or a nested element) has an
            unsupported type.
    """
    return _encode(value)[0]


def _encode(value: Any) -> Tuple[bytes, bool]:
    """Return ``(bytes, deep_immutable)`` — the latter gates instance memoisation."""
    cached = getattr(value, _BYTES_ATTR, None)
    if cached is not None:
        return cached, True
    if value is None:
        return b"n", True
    if isinstance(value, (bool, int, float)):
        return _encode_number(value), True
    if isinstance(value, str):
        data = value.encode("utf-8")
        return b"s" + len(data).to_bytes(4, "big") + data, True
    if isinstance(value, (bytes, bytearray)):
        data = bytes(value)
        return b"y" + len(data).to_bytes(4, "big") + data, isinstance(value, bytes)
    if isinstance(value, (list, tuple, set, frozenset)):
        immutable = isinstance(value, (tuple, frozenset))
        parts = []
        for item in value:
            item_bytes, item_immutable = _encode(item)
            parts.append(item_bytes)
            immutable = immutable and item_immutable
        tag = b"l"
        if isinstance(value, (set, frozenset)):
            parts.sort()  # sets encode in sorted order
            tag = b"e"
        return tag + len(parts).to_bytes(4, "big") + b"".join(parts), immutable
    if isinstance(value, dict):
        data, immutable = _encode_items(value.items())
        immutable = immutable and isinstance(value, FrozenDict)
        if immutable:
            _memoise(value, _BYTES_ATTR, data)
        return data, immutable
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        names, frozen = _dataclass_info(type(value))
        body, immutable = _encode_items((name, getattr(value, name)) for name in names)
        data = b"c" + _encode(type(value).__name__)[0] + body
        if frozen and immutable:
            _memoise(value, _BYTES_ATTR, data)
        return data, frozen and immutable
    raise UnsupportedPayloadError(
        f"cannot canonically encode value of type {type(value).__name__!r}"
    )


def _encode_items(items) -> Tuple[bytes, bool]:
    """Encode ``(key, value)`` pairs as a dict, sorted by encoded key."""
    encoded = []
    immutable = True
    for key, value in items:
        key_bytes, key_immutable = _encode(key)
        value_bytes, value_immutable = _encode(value)
        encoded.append((key_bytes, value_bytes))
        immutable = immutable and key_immutable and value_immutable
    encoded.sort(key=lambda kv: kv[0])
    body = b"".join(k + v for k, v in encoded)
    return b"d" + len(encoded).to_bytes(4, "big") + body, immutable


def _memoise(value: Any, attr: str, result: Any) -> None:
    try:
        object.__setattr__(value, attr, result)
    except (AttributeError, TypeError):
        pass  # __slots__ without room for the memo


def estimate_size(value: Any) -> int:
    """Estimate the wire size, in bytes, of a payload.

    The estimate mirrors ``canonical_encode`` but never raises: unsupported types
    fall back to the length of their ``repr``.  It is intentionally cheap and
    approximate — it is only used for latency modelling and traffic statistics.

    Sizes of *deep-immutable* frozen dataclass instances are memoised on the
    instance: protocol payloads (bid vectors, allocations, payments) are
    broadcast and echoed many times per round, and re-walking a 100-user vector
    per message dominated the simulator's wall time.  ``frozen=True`` alone is
    only shallow, so the recursion tracks whether every nested value is itself
    immutable and skips the memo otherwise (a frozen dataclass holding a dict
    that later grows must keep being re-measured).  A :class:`FrozenDict` is the
    one mapping that counts as immutable, so consensus batches and echo views
    are measured once, not once per message.
    """
    return _estimate(value)[0]


def _estimate(value: Any) -> Tuple[int, bool]:
    """Return ``(size, deep_immutable)`` — the latter gates instance memoisation."""
    # Memoised instances answer before the type dispatch below — payload
    # dataclasses are by far the hottest case in simulated rounds.
    cached = getattr(value, _SIZE_ATTR, None)
    if cached is not None:
        return cached, True
    if value is None or isinstance(value, bool):
        return 1, True
    if isinstance(value, int):
        return max(1, (value.bit_length() + 7) // 8) + 1, True
    if isinstance(value, float):
        return 8, True
    if isinstance(value, str):
        return len(value.encode("utf-8")) + 4, True
    if isinstance(value, bytearray):
        return len(value) + 4, False
    if isinstance(value, bytes):
        return len(value) + 4, True
    if isinstance(value, (tuple, frozenset)):
        size = 4
        immutable = True
        for item in value:
            item_size, item_immutable = _estimate(item)
            size += item_size
            immutable = immutable and item_immutable
        return size, immutable
    if isinstance(value, (list, set)):
        return 4 + sum(_estimate(item)[0] for item in value), False
    if isinstance(value, dict):
        size = 4
        immutable = isinstance(value, FrozenDict)
        for key, item in value.items():
            key_size, key_immutable = _estimate(key)
            item_size, item_immutable = _estimate(item)
            size += key_size + item_size
            immutable = immutable and key_immutable and item_immutable
        if immutable:
            _memoise(value, _SIZE_ATTR, size)
        return size, immutable
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        names, frozen = _dataclass_info(type(value))
        size = 4
        immutable = frozen
        for name in names:
            field_size, field_immutable = _estimate(getattr(value, name))
            size += field_size
            immutable = immutable and field_immutable
        if immutable:
            _memoise(value, _SIZE_ATTR, size)
        return size, immutable
    return len(repr(value)), False
