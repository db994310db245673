"""Deterministic text serialization for CLI and report output.

Every float is rendered with 17 significant digits, which round-trips
losslessly through ``float()``, so repeated runs with identical inputs give
byte-identical output.  JSON has no token for nan or infinity, so
``json_dumps`` refuses them; CSV cells carry them as ``nan``/``inf``.
"""

import math

from .errors import DomainError

__all__ = ["fmt_float", "json_dumps", "csv_line"]


def fmt_float(x: float) -> str:
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, ".17g")


# JSON strings may not hold a backslash, a quote or U+0000-U+001F raw.
_JSON_ESCAPES = {ord("\\"): "\\\\", ord('"'): '\\"'} | {c: f"\\u{c:04x}" for c in range(32)}


def _emit(obj, out: list[str]) -> None:
    if obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, str):
        out.append('"' + obj.translate(_JSON_ESCAPES) + '"')
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise DomainError(f"non-finite result {fmt_float(obj)} has no JSON form")
        out.append(fmt_float(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for k, (key, val) in enumerate(obj.items()):
            if k:
                out.append(", ")
            _emit(str(key), out)
            out.append(": ")
            _emit(val, out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for k, val in enumerate(obj):
            if k:
                out.append(", ")
            _emit(val, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_dumps(obj) -> str:
    """JSON text with floats at 17 significant digits, keys in given order."""
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def csv_line(fields) -> str:
    """One comma-separated line; floats formatted, strings quoted if needed."""
    parts = []
    for f in fields:
        if isinstance(f, bool):
            parts.append("true" if f else "false")
        elif isinstance(f, float):
            parts.append(fmt_float(f))
        elif isinstance(f, str) and any(c in f for c in ',"\r\n'):
            # Quoted only where a reader would split it, as csv.QUOTE_MINIMAL does.
            parts.append('"' + f.replace('"', '""') + '"')
        else:
            parts.append(str(f))
    return ",".join(parts)
