"""Strict indented JSON text: the one writer of every JSON output, the
commands' stdout payloads, model files, reports and explanations.

It imports no numpy, so the commands that need none (``validate``,
``causal-graph``) start without it.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from pathlib import Path

_NONFINITE = frozenset({"nan", "inf", "-inf"})


def _json_key(key: object) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if key is None or isinstance(key, (int, float)):  # a bool is an int
        return '"' + _json_text(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _json_text(obj: object, indent: str = "\n") -> str:
    """``json.dumps(obj, indent=2, allow_nan=False)``, with the same bytes and
    the same ``ValueError`` and ``TypeError`` refusals (a cycle is not
    detected).

    With ``indent`` set, ``json`` runs its pure-Python encoder, one generator
    step per token; this writes each container with one loop and one
    ``str.join``, through the same string encoder and ``float.__repr__``.
    The loop writes a ``str``, ``float``, ``int``, ``bool`` or ``None`` of
    exactly that type inline and anything else (a subclass such as
    ``np.float64`` too) by recursion; a key is checked before its value, as
    ``json`` does. ``indent`` is a newline and the enclosing level's spaces.
    """
    mapping = isinstance(obj, dict)
    if not mapping and not isinstance(obj, (list, tuple)):
        if isinstance(obj, str):
            return encode_basestring_ascii(obj)
        if obj is None:
            return "null"
        if obj is True:
            return "true"
        if obj is False:
            return "false"
        if isinstance(obj, int):
            return int.__repr__(obj)
        if isinstance(obj, float):
            text = float.__repr__(obj)
            if text in _NONFINITE:
                raise ValueError("Out of range float values are not JSON compliant: " + repr(obj))
            return text
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")
    if not obj:
        return "{}" if mapping else "[]"
    inner = indent + "  "
    items: list[str] = []
    append = items.append
    head = ""
    for key, value in obj.items() if mapping else enumerate(obj):
        if mapping:
            head = (encode_basestring_ascii(key) if type(key) is str else _json_key(key)) + ": "
        kind = type(value)
        if kind is str:
            append(head + encode_basestring_ascii(value))
        elif kind is float:
            text = float.__repr__(value)
            if text in _NONFINITE:
                raise ValueError("Out of range float values are not JSON compliant: " + text)
            append(head + text)
        elif kind is int:
            append(head + int.__repr__(value))
        elif kind is bool:
            append(head + ("true" if value else "false"))
        elif value is None:
            append(head + "null")
        else:
            append(head + _json_text(value, inner))
    if mapping:
        return "{" + inner + ("," + inner).join(items) + indent + "}"
    return "[" + inner + ("," + inner).join(items) + indent + "]"


def _write_json(obj: object, path: str | Path) -> str:
    """Write ``obj`` as :func:`_json_text` and one LF to ``path``, and return
    the text. It is built before the file is opened: a refusal writes none."""
    text = _json_text(obj)
    Path(path).write_bytes(text.encode("utf-8") + b"\n")
    return text
