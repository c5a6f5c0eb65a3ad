"""Flat ``key = value`` configuration files.

One assignment per line, ``#`` starts a comment, whitespace around the key
and value is ignored. Values stay strings; callers convert.
"""

from dataclasses import fields


def read_kv(path):
    """Parse a flat key-value file into a dict of strings."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            key = key.strip()
            if not key:
                raise ValueError(f"{path}:{lineno}: empty key")
            out[key] = value.strip()
    return out


_PARSERS_BY_TYPE = {int: int, float: float, str: str, str | None: str}


def read_fields(cls, kv, parsers=None):
    """Pop the keys of ``kv`` that name fields of the dataclass ``cls``.

    A value is converted by ``parsers[name]``, else by the parser of its
    field's type (int, float or str); keys naming fields of any other type
    stay in ``kv``.
    """
    values = {}
    for f in fields(cls):
        parse = (parsers or {}).get(f.name, _PARSERS_BY_TYPE.get(f.type))
        if f.name in kv and parse:
            values[f.name] = parse(kv.pop(f.name))
    return values
