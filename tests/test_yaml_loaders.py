"""The YAML load path on both loader bases: libyaml's and PyYAML's own.

``ingest._StrictLoader`` is built on libyaml when PyYAML has it and on the
pure-Python loader otherwise.  The strict constructors run on either, so
the same documents must give the same values or be rejected by both; the
edge cases of YAML syntax where they differ are pinned in
``KNOWN_DIFFERENCES``.  The
``strict_loader`` fixture runs ``_load_yaml`` on each base, so the
fallback stays tested on a host that has libyaml.
"""

from __future__ import annotations

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from flowcheck import MalformedYaml
from flowcheck import ingest


def _strict(base):
    """A loader on ``base`` with exactly the constructors of _StrictLoader."""
    return type(
        f"Strict{base.__name__}", (base,),
        {"yaml_constructors": dict(ingest._StrictLoader.yaml_constructors)},
    )


BASES = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])
LOADERS = {base.__name__: _strict(base) for base in BASES}

needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")


def test_base_is_libyaml_when_available():
    assert ingest._StrictLoader.__bases__ == (BASES[-1],)
    assert ingest._BASE_LOADER is BASES[-1]


@pytest.fixture(params=BASES, ids=lambda base: base.__name__)
def strict_loader(request, monkeypatch):
    """_load_yaml with its depth pass and load on one base."""
    monkeypatch.setattr(ingest, "_BASE_LOADER", request.param)
    monkeypatch.setattr(ingest, "_StrictLoader", LOADERS[request.param.__name__])
    return lambda text: ingest._load_yaml(text, "document")


# --- behaviour pinned on each base -------------------------------------------


def test_duplicate_key_rejected(strict_loader):
    with pytest.raises(MalformedYaml, match="duplicate mapping key 'a'"):
        strict_loader("a: 1\nb: 2\na: 3\n")


def test_merge_keys_lose_to_explicit_keys(strict_loader):
    text = "base: &b {x: 1, y: 2}\nother: &o {y: 3, z: 4}\nm:\n  <<: [*b, *o]\n  x: 9\n"
    assert strict_loader(text)["m"] == {"x": 9, "y": 2, "z": 4}


def test_duplicate_merge_key_rejected(strict_loader):
    with pytest.raises(MalformedYaml, match="duplicate mapping key '<<'"):
        strict_loader("b: &b {x: 1}\nm: {<<: *b, <<: *b}\n")


@pytest.mark.parametrize("value", [2**64 - 1, -(2**64 - 1)])
def test_int_at_64_bits_loads(strict_loader, value):
    assert strict_loader(f"n: {value}\n") == {"n": value}


@pytest.mark.parametrize("text", [f"n: {2**64}\n", f"n: {-(2**64)}\n", "n: 0x1" + "0" * 16 + "\n"])
def test_int_past_64_bits_rejected(strict_loader, text):
    with pytest.raises(MalformedYaml, match="integer out of range"):
        strict_loader(text)


@pytest.mark.parametrize("open_, close", [("[", "]"), ("{a: ", "}")])
def test_nesting_bound(strict_loader, open_, close):
    depth = ingest.MAX_NESTING
    value = strict_loader(open_ * depth + close * depth)
    for _ in range(depth - 1):
        value = value[0] if isinstance(value, list) else value["a"]
    assert value in ([], {"a": None})
    with pytest.raises(MalformedYaml, match=f"nested deeper than {depth} levels"):
        strict_loader(open_ * (depth + 1) + close * (depth + 1))


def test_nesting_bound_counts_block_collections(strict_loader):
    depth = ingest.MAX_NESTING
    deep = "".join(" " * level + "a:\n" for level in range(depth)) + " " * depth + "- x\n"
    with pytest.raises(MalformedYaml, match=f"nested deeper than {depth} levels"):
        strict_loader(deep)


def test_alias_chain_is_config_error(strict_loader):
    # shallow text, but each mapping's value aliases one not yet built
    links = 1200
    chain = "".join(f"[&m{i} {{x: *m{i - 1}}}], " for i in range(1, links)).replace("*m0", "1")
    text = f"[{chain}{{z: *m{links - 1}}}]"
    with pytest.raises(MalformedYaml):
        strict_loader(text)


# --- the two bases agree -----------------------------------------------------

REJECTED = "rejected"

# text -> (what libyaml gives, what PyYAML's own loader gives).  Each row
# either loads on one side only or, for "!", gives "" where the other gives
# None; every field flowcheck reads rejects "" or reads it as absent, so no
# row changes what a loaded file allows.
KNOWN_DIFFERENCES = {
    # libyaml takes a tab as separating white space; PyYAML only spaces
    "a:\t1": ({"a": 1}, REJECTED),
    "a: x\ty\n": ({"a": "x\ty"}, REJECTED),
    "a: [1, \t2]\n": ({"a": [1, 2]}, REJECTED),
    # but libyaml refuses a tab leading a block scalar's content line
    "a: |\n  \tx\n": (REJECTED, {"a": "\tx\n"}),
    # "?" inside a flow plain scalar, and "#" right after a block header
    "{a: 1?}": ({"a": "1?"}, REJECTED),
    "e: >#-\n  x\n": ({"e": "x\n"}, REJECTED),
    # a flow key whose ":" is followed directly by "}"
    "{a:}": (REJECTED, {"a": None}),
    # an empty scalar tagged "!"
    "a: !\n": ({"a": ""}, {"a": None}),
}


@needs_libyaml
@pytest.mark.parametrize("text", list(KNOWN_DIFFERENCES))
def test_known_differences(text):
    def outcome(loader):
        try:
            return yaml.load(text, Loader=loader)
        except yaml.YAMLError:
            return REJECTED

    assert (outcome(LOADERS["CSafeLoader"]), outcome(LOADERS["SafeLoader"])) == KNOWN_DIFFERENCES[text]


# Most leaves are valid; a few are junk that both must reject.  The anchors
# &a and &b name the mappings the preamble defines and &s a scalar, so most
# merge keys resolve; &c and &d are set at random and may be redefined,
# which both composers reject.  Ints cluster at the 64-bit bound.
_PREAMBLE = "defs: [&a {a: 1, b: 2}, &b {b: 3, c: 4}, &s 5]\n"
_scalars = st.sampled_from(
    ["a", "b", "x y", "''", '"q\\n"', "~", "null", "true", "no", "1.5", ".inf", "-0",
     "0x1F", "0o17", "0b101", "1_000", "+12", "2001-02-03", "!!str 4", "!!int 3",
     "*a", "*b", "*s"] * 8
    + ["*c", "*d", "2001-02-30", "!!float x", "*z", "@x", "'open", "[", "- -", "a: b", "#c"]
)
_ints = st.sampled_from([2**63 - 1, 2**63, 2**64 - 1, 2**64, 2**70]).flatmap(
    lambda bound: st.sampled_from([bound, -bound])
) | st.integers(-1000, 1000)
_keys = st.sampled_from(["a", "b", "c", "d", "e", "1", "~", "*s", "[x]"] * 3 + ["<<"] * 4)
_merges = st.sampled_from(["*a", "*b", "[*a, *b]", "[*b, *a]", "*c", "*s", "[*a, 1]"])
_anchors = st.sampled_from(["", "", "", "", "", "", "&c ", "&d "])


def _items(leaves, max_size=4):
    # a merge key takes a merge source half the time and any leaf otherwise
    pair = st.tuples(_keys, _merges | st.none(), leaves).map(
        lambda item: (item[0], item[1] if item[0] == "<<" and item[1] else item[2])
    )
    return st.lists(pair, max_size=max_size, unique_by=lambda item: item[0])


def _collection(leaves):
    return st.tuples(st.sampled_from(["map", "seq"]), st.booleans(), _anchors, _items(leaves))


_trees = st.recursive(_scalars | _scalars | _ints.map(str), _collection, max_leaves=10)


def _render_flow(tree) -> str:
    if isinstance(tree, str):
        return tree
    kind, _, anchor, items = tree
    if kind == "map":
        return anchor + "{" + ", ".join(f"{k}: {_render_flow(v)}" for k, v in items) + "}"
    return anchor + "[" + ", ".join(_render_flow(v) for _, v in items) + "]"


def _render(tree, indent: int = 0) -> str:
    """Block style where the tree asks for it; flow style inside flow."""
    if isinstance(tree, str) or tree[1] or not tree[3]:
        return " " * indent + _render_flow(tree) + "\n"
    kind, _, anchor, items = tree
    pad = " " * indent
    lines = [pad + anchor.strip() + "\n"] if anchor else []
    for key, value in items:
        lead = pad + (f"{key}:" if kind == "map" else "-")
        if isinstance(value, str) or value[1] or not value[3]:
            lines.append(lead + " " + _render_flow(value) + "\n")
        else:
            child = _render(value, indent + 2)
            if value[2]:  # the child's anchor line joins the key line
                first, _, rest = child.partition("\n")
                lines.append(lead + " " + first.strip() + "\n" + rest)
            else:
                lines.append(lead + "\n" + child)
    return "".join(lines)


def _outcome(loader, text):
    try:
        # repr compares key order too and survives recursive lists
        return "value", repr(yaml.load(text, Loader=loader))
    except (yaml.YAMLError, ValueError, RecursionError):
        return "rejected", None


@needs_libyaml
@settings(max_examples=200, deadline=None)
@given(items=_items(_trees, max_size=5), repeat_key=st.booleans())
def test_bases_agree(items, repeat_key):
    if repeat_key and items:
        items = [*items, items[0]]  # a duplicate key
    text = _PREAMBLE + (_render(("map", False, "", items)) if items else "")
    assert _outcome(LOADERS["CSafeLoader"], text) == _outcome(LOADERS["SafeLoader"], text), text
