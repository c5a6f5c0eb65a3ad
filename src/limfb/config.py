"""Flat ``key = value`` configuration files.

One assignment per line, ``#`` starts a comment, whitespace around the key
and value is ignored. Values stay strings; callers convert.
"""


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

