"""Deterministic text serialization for CLI and report output.

Every float is rendered with 17 significant digits, which round-trips
losslessly through ``float()``, so repeated runs with identical inputs give
byte-identical output.  JSON has no token for nan or infinity, so
``json_dumps`` refuses them; CSV cells carry them as ``nan``/``inf``.
"""

import math

from .errors import DomainError

__all__ = ["fmt_float", "json_dumps", "csv_line", "csv_lines"]


def fmt_float(x: float) -> str:
    # Also "nan" for -nan, "inf", "-inf" and "-0".
    return format(float(x), ".17g")


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
    elif isinstance(obj, (list, tuple)) and set(map(type, obj)) == {float}:
        out.append("[" + _float_items(obj) + "]")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for k, val in enumerate(obj):
            if k:
                out.append(", ")
            _emit(val, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def _float_items(values) -> str:
    """The items of a list of floats, as ``_emit`` writes them, formatting
    each distinct value once: valuations repeat a few values many times."""
    text = dict.fromkeys(values)
    for x in text:  # in order of first appearance
        if not math.isfinite(x):
            raise DomainError(f"non-finite result {fmt_float(x)} has no JSON form")
        text[x] = fmt_float(x)
    if 0.0 in text:  # 0.0 and -0.0 share a key, not a text
        return ", ".join([text[x] if x else fmt_float(x) for x in values])
    return ", ".join(map(text.__getitem__, values))


def json_dumps(obj) -> str:
    """JSON text with floats at 17 significant digits, keys in given order."""
    out: list[str] = []
    _emit(obj, out)
    return "".join(out)


def _field(f) -> str:
    if isinstance(f, bool):
        return "true" if f else "false"
    if isinstance(f, float):
        return fmt_float(f)
    if isinstance(f, str) and any(c in f for c in ',"\r\n'):
        # Quoted only where a reader would split it, as csv.QUOTE_MINIMAL does.
        return '"' + f.replace('"', '""') + '"'
    return str(f)


def csv_line(fields) -> str:
    """One comma-separated line; floats formatted, strings quoted if needed."""
    return ",".join(map(_field, fields))


def _is_column(c) -> bool:
    # A 1-D array; numpy scalars, such as the sweep's omega, have ndim 0.
    return getattr(c, "ndim", 0) == 1


def _column(values) -> list[str]:
    if values.dtype == float:
        return [format(x, ".17g") for x in values.tolist()]  # fmt_float, inlined
    return list(map(_field, values.tolist()))


def csv_lines(columns) -> list[str]:
    """``csv_line`` of every row, for rows given as columns.

    A column is a 1-D array with one field per row, or a single field that
    every row repeats; fields follow the rule of ``csv_line``.  At least one
    column must be an array.
    """
    rows = next(len(c) for c in columns if _is_column(c))
    cells = [_column(c) if _is_column(c) else [_field(c)] * rows for c in columns]
    return list(map(",".join, zip(*cells)))
