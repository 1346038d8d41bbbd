"""Hypothesis strategies for JSON-like spec trees.

Shared by the campaign and serve-scenario loader properties: trees whose
table keys come from a grammar's real key vocabulary and whose leaves mix
valid words with wrong-typed scalars, nested lists and nested tables.
Text leaves never contain ``/`` or ``.``, so any path a tree names is a
bare relative name resolved under the caller's ``base_dir``.
"""

from __future__ import annotations

from hypothesis import strategies as st


def values(keys, words) -> st.SearchStrategy:
    """Any JSON-like value: scalars, grammar words, lists and tables."""
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-2, 300),
        st.floats(-1e3, 1e3),
        st.text(alphabet="abz019:-_ ", max_size=6),
        st.sampled_from(words),
    )
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(keys), inner, max_size=3),
        max_leaves=8,
    )


def tables(keys, words) -> st.SearchStrategy:
    """Random tables over the grammar's keys."""
    return st.dictionaries(st.sampled_from(keys), values(keys, words), max_size=6)


def _paths(node, prefix=()):
    yield prefix
    children = (
        node.items() if isinstance(node, dict)
        else enumerate(node) if isinstance(node, list) else ()
    )
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _replaced(node, path, value):
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(node, dict):
        return {**node, head: _replaced(node[head], rest, value)}
    return [_replaced(c, rest, value) if i == head else c for i, c in enumerate(node)]


def mutations(base: dict, keys, words) -> st.SearchStrategy:
    """*base* with one node, at any depth, replaced by a random value —
    reaches the checks deep inside an otherwise valid spec."""
    paths = [path for path in _paths(base) if path]
    return st.builds(
        _replaced, st.just(base), st.sampled_from(paths), values(keys, words)
    )
