"""Hypothesis helpers for fuzzing the JSON decoders.

A fuzz example takes a valid encoded object and puts a random JSON value at
its root or at one of its field paths; the decoder under test must return a
value or raise its own error, never anything else.
"""

import copy

from hypothesis import strategies as st

#: any JSON value, nested a little
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


def field_paths(obj, path=()) -> list:
    """The root, ``()``, and the path of every field below it, depth first."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return [path]
    return [path] + [p for key, value in items for p in field_paths(value, path + (key,))]


def replaced(obj, path, value):
    """A copy of ``obj`` with ``value`` at ``path``; ``value`` itself for the
    root."""
    if not path:
        return value
    out = copy.deepcopy(obj)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out
