"""Canonical JSON helpers shared by certificates and scan reports.

All integers are serialized as decimal strings and objects are dumped
with sorted keys and fixed separators, so equal values always produce
byte-identical text.
"""

import json


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def dec(value: int) -> str:
    return str(int(value))


def undec(text) -> int:
    if isinstance(text, int):
        return text
    if not isinstance(text, str) or not text.isascii() or not text.lstrip("-").isdigit():
        raise ValueError(f"not a decimal string: {text!r}")
    return int(text)
