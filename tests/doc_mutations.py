"""One-mutation cases for the documents dpnego reads from outside.

``mutated(doc, required, nullable, maps)`` draws one change that the
document's schema must refuse, and the key path its refusal must name:
- a value of another JSON type;
- an unknown key in an object (not in a map, whose keys are free);
- a missing required key;
- NaN, inf or -inf in place of a number.

Paths are tuples of keys and indices; in the ``required``, ``nullable`` and
``maps`` patterns a ``"*"`` stands for any one key or index. ``nullable``
names the keys whose null reads as absent.
"""

import copy
import math

from hypothesis import strategies as st

UNKNOWN_KEY = "priority"
# One value of each JSON type.
SAMPLES = {"null": None, "boolean": True, "number": 7, "string": "7", "array": [7],
           "object": {"k": 7}}


def json_type(value):
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "array", dict: "object"}[type(value)]


def nodes(doc, path=()):
    """(path, value) of every value below ``doc``, outermost first."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield path + (key,), value
        yield from nodes(value, path + (key,))


def matches(path, patterns):
    return any(len(path) == len(p) and all(q in ("*", k) for k, q in zip(path, p))
               for p in patterns)


def key_path(path):
    """``path`` as the reader names it: ``trust.r-1.quality``, ``[2].scheme.k``."""
    text = ""
    for key in path:
        text += f"[{key}]" if isinstance(key, int) else f".{key}" if text else key
    return text


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def mutated(draw, doc, required, nullable=(), maps=()):
    """A copy of the valid ``doc`` with one refused change, and the key path
    of that change."""
    doc = copy.deepcopy(doc)
    all_nodes = list(nodes(doc))
    # a nullable key's null stands for its absence, which any kind may replace
    retype = [(path, kind) for path, value in all_nodes for kind in SAMPLES
              if kind != json_type(value) and not (
                  matches(path, nullable) and None in (value, SAMPLES[kind]))]
    objects = [path for path, value in [((), doc), *all_nodes]
               if isinstance(value, dict) and not matches(path, maps)]
    present = [path for path, _ in all_nodes if matches(path, required)]
    numbers = [path for path, value in all_nodes if json_type(value) == "number"]
    choices = ["type"] + ["unknown"] * bool(objects) + ["missing"] * bool(present)
    choices += ["non-finite"] * bool(numbers)
    change = draw(st.sampled_from(choices))
    if change == "type":
        path, kind = draw(st.sampled_from(retype))
        _at(doc, path[:-1])[path[-1]] = copy.deepcopy(SAMPLES[kind])
    elif change == "unknown":
        path = draw(st.sampled_from(objects)) + (UNKNOWN_KEY,)
        _at(doc, path[:-1])[UNKNOWN_KEY] = 7
    elif change == "missing":
        path = draw(st.sampled_from(present))
        del _at(doc, path[:-1])[path[-1]]
    else:
        path = draw(st.sampled_from(numbers))
        _at(doc, path[:-1])[path[-1]] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return doc, key_path(path)
