"""Canonical JSON helpers shared by certificates and scan reports.

All integers are serialized as decimal strings (non-integers are
refused), and read back only from that canonical form.  Objects are
dumped with sorted keys and fixed separators, so equal values always
produce byte-identical text.
"""

import json
import operator


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def dec(value: int) -> str:
    return str(operator.index(value))


def undec(text) -> int:
    if not isinstance(text, str) or not text.isascii() or not text.lstrip("-").isdigit():
        raise ValueError(f"not a decimal string: {text!r}")
    value = int(text)
    if str(value) != text:
        raise ValueError(f"not a canonical decimal string: {text!r}")
    return value
