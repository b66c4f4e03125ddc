"""The YAML load path on both loader bases: libyaml's and PyYAML's own.

``ingest._load_yaml`` reads with a loader of ``ingest._BASE_LOADER``:
libyaml's scanner and parser when PyYAML has them, the pure-Python ones
otherwise.  On either, ``ingest._document`` builds the values straight
from the parser's events, with no PyYAML composer or ``construct_object``,
so the same documents must give the same values or be rejected by both;
the edge cases of YAML syntax where the parsers differ are pinned in
``KNOWN_DIFFERENCES``.  What it loads must equal what PyYAML's plain
``SafeLoader`` loads, and what that rejects it must reject too.  Scalars
load under the core tags (str, null, bool, int of at most 64 bits, float,
binary, timestamp), collections only as plain ``!!seq`` and ``!!map``; any
other tag, a tag that does not fit its node, an alias to an enclosing
collection and nesting past ``MAX_NESTING`` are refused, and the nesting
counts through aliases.  The ``strict_loader`` fixture runs ``_load_yaml``
with ``_BASE_LOADER`` set to each base in turn, so the fallback stays
tested on a host that has libyaml.
"""

from __future__ import annotations

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from flowcheck import MalformedYaml
from flowcheck import ingest


BASES = [yaml.SafeLoader] + ([yaml.CSafeLoader] if yaml.__with_libyaml__ else [])

needs_libyaml = pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")


def test_base_is_libyaml_when_available():
    assert ingest._BASE_LOADER is BASES[-1]


@pytest.fixture(params=BASES, ids=lambda base: base.__name__)
def strict_loader(request, monkeypatch):
    """_load_yaml, with its nesting bound, on one base."""
    monkeypatch.setattr(ingest, "_BASE_LOADER", request.param)
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


def test_a_quoted_scalar_resolves_apart_from_the_same_plain_text(strict_loader):
    assert strict_loader("a: 1\nb: '1'\nc: \"1\"\nd: 1\ne: ''\nf:\n") == {
        "a": 1, "b": "1", "c": "1", "d": 1, "e": "", "f": None
    }


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


def test_each_file_is_parsed_once(strict_loader, monkeypatch):
    # the nesting bound needs no separate pass over the parser's events
    def no_second_parse(*args, **kwargs):
        raise AssertionError("yaml.parse called")

    monkeypatch.setattr(yaml, "parse", no_second_parse)
    assert strict_loader("a: [1, {b: 2}]\n") == {"a": [1, {"b": 2}]}


@pytest.mark.parametrize("text", [
    "s: !!set {a, b}\n",
    "o: !!omap [{a: 1}, {b: 2}]\n",
    "p: !!pairs [{a: 1}, {a: 2}]\n",
    "f: !foo x\n",
    "g: !foo [x]\n",
    "m: !!map [a, b]\n",
    "q: !!seq {a: 1}\n",
    "i: !!int [1]\n",
    "v: =\n",
], ids=["set", "omap", "pairs", "local-scalar", "local-sequence", "map-on-sequence", "seq-on-mapping",
        "int-on-sequence", "value-tag"])
def test_tags_other_than_the_core_ones_rejected(strict_loader, text):
    with pytest.raises(MalformedYaml, match="is not allowed on a"):
        strict_loader(text)


@pytest.mark.parametrize("text", ["&a [1, *a]\n", "&a [1, [2, *a]]\n", "&m {x: *m}\n", "&m {x: [*m]}\n"])
def test_alias_to_an_enclosing_collection_rejected(strict_loader, text):
    with pytest.raises(MalformedYaml, match="alias to an enclosing collection"):
        strict_loader(text)


def test_nesting_bound_counts_through_aliases(strict_loader):
    depth = ingest.MAX_NESTING
    defined = "a: &x " + "[" * (depth - 1) + "]" * (depth - 1) + "\n"  # 100 levels under the document
    assert strict_loader(defined + "b: *x\n")["b"] == strict_loader(defined)["a"]
    with pytest.raises(MalformedYaml, match=f"nested deeper than {depth} levels"):
        strict_loader(defined + "b: [*x]\n")  # 101


def test_no_composer_no_constructor_no_collection_nodes(strict_loader, monkeypatch):
    # values are built from the parser's events; only a scalar that a core
    # constructor reads (not a str) becomes a node
    def refuse(*args, **kwargs):
        raise AssertionError("PyYAML's node path was used")

    built_tags = []
    scalar_node = yaml.nodes.ScalarNode.__init__

    def recording(node, tag, *args, **kwargs):
        built_tags.append(tag)
        scalar_node(node, tag, *args, **kwargs)

    monkeypatch.setattr(yaml.composer.Composer, "compose_node", refuse)
    monkeypatch.setattr(yaml.constructor.BaseConstructor, "construct_object", refuse)
    monkeypatch.setattr(yaml.nodes.CollectionNode, "__init__", refuse)
    monkeypatch.setattr(yaml.nodes.ScalarNode, "__init__", recording)
    text = "base: &b {port: 443, when: 2001-02-03}\nuse: {<<: *b, name: x, n: 7}\nlist: [*b, ~]\n"
    value = strict_loader(text)
    when = value["base"]["when"]
    assert value == {
        "base": {"port": 443, "when": when},
        "use": {"port": 443, "when": when, "name": "x", "n": 7},
        "list": [{"port": 443, "when": when}, None],
    }
    assert str(when) == "2001-02-03"
    assert set(built_tags) == {"tag:yaml.org,2002:int", "tag:yaml.org,2002:timestamp", "tag:yaml.org,2002:null"}


@pytest.mark.parametrize("text, problem, line, column", [
    ("a: 1\nb: 2\na: 3\n", "duplicate mapping key 'a'", 3, 1),
    (f"a: '{2**64}'\nb: !!str {2**64}\nn: {2**64}\n", "integer out of range", 3, 4),
    ("a: x\nb: !foo x\n", "tag '!foo' is not allowed on a scalar", 2, 4),
    ("a: [x]\n? [x]\n: 1\n", "found unhashable key", 2, 3),
    ("m: {<<: {x: 1}}\nn: [<<]\n", "tag 'tag:yaml.org,2002:merge' is not allowed on a scalar outside a mapping key",
     2, 5),
    ("m: {<<: {x: 1}, y: 2}\nn: {y: 3, <<: 2}\n", "expected a mapping or list of mappings for merging", 2, 15),
], ids=["duplicate-key", "wide-int", "disallowed-tag", "unhashable-key", "merge-outside-key", "merge-of-a-scalar"])
def test_a_refusal_names_its_own_occurrence_of_text_seen_before(strict_loader, text, problem, line, column):
    # the text is kept from its earlier occurrence; the mark is this one's
    with pytest.raises(MalformedYaml) as raised:
        strict_loader(text)
    assert str(raised.value).startswith(f'document: {problem}\n  in "document", line {line}, column {column}')


def test_a_scalar_that_fails_to_build_raises_at_its_first_occurrence(strict_loader):
    # a date past the month's end fails in the constructor, before the
    # unclosed sequence after it is parsed
    day = r'^document: day is out of range for month\n  in "document", line 2, column 4'
    with pytest.raises(MalformedYaml, match=day):
        strict_loader("a: x\nb: 2001-02-30\nc: 2001-02-30\nd: [\n")
    undecodable = r'^document: failed to decode base64 data: [^\n]*\n  in "document", line 2, column 4'
    with pytest.raises(MalformedYaml, match=undecodable):
        strict_loader("a: !!str a\nb: !!binary a\nc: !!binary a\n")


@pytest.mark.parametrize("scalar, problem", [
    ("!!int x12", "invalid literal for int() with base 10: 'x12'"),
    ("!!float abc", "could not convert string to float: 'abc'"),
    ("!!bool abc", "not a valid bool: 'abc'"),
    ("!!int ''", "not a valid int: ''"),
    ("!!float ''", "not a valid float: ''"),
    ("!!timestamp abc", "not a valid timestamp: 'abc'"),
], ids=["int-letters", "float-letters", "bool-word", "int-empty", "float-empty", "timestamp-word"])
def test_a_tagged_scalar_its_constructor_cannot_read_is_refused_at_its_position(strict_loader, scalar, problem):
    # PyYAML's core constructors refuse such text with ValueError, or fail
    # with KeyError, IndexError or AttributeError; each is one marked refusal
    with pytest.raises(MalformedYaml) as raised:
        strict_loader(f"a: x\nb: {scalar}\n")
    assert str(raised.value).startswith(f'document: {problem}\n  in "document", line 2, column 4')


def test_each_distinct_scalar_is_resolved_and_built_once_per_load(strict_loader, monkeypatch):
    # a 1,000-step script-shaped file: its 18,003 untagged scalars are 1,021
    # distinct written forms, and of all its distinct scalars only the
    # seven whose values are not str are built
    text = "mode: strict\nsteps:\n" + "".join(
        f"  - create_policy: {{name: pol-{i}, first: a, second: b, direction: {i % 2},"
        f" weight: 1.5, note: ~, flag: true, at: 2001-02-03, blob: !!binary aGk=}}\n"
        for i in range(1000)
    )
    loader = ingest._BASE_LOADER
    resolved, built, nodes = [], [], []
    resolve, scalar_node = loader.resolve, yaml.nodes.ScalarNode.__init__

    def counting_resolve(self, kind, value, implicit):
        resolved.append((value, implicit))
        return resolve(self, kind, value, implicit)

    def counting_node(node, tag, *args, **kwargs):
        nodes.append(tag)
        scalar_node(node, tag, *args, **kwargs)

    def counting(tag, construct):
        def constructor(self, node):
            built.append(tag.rpartition(":")[2])
            return construct(self, node)
        return constructor

    monkeypatch.setattr(loader, "resolve", counting_resolve)
    monkeypatch.setattr(yaml.nodes.ScalarNode, "__init__", counting_node)
    for tag in ingest._CONSTRUCTED:
        monkeypatch.setitem(loader.yaml_constructors, tag, counting(tag, loader.yaml_constructors[tag]))
    value = strict_loader(text)
    assert len(value["steps"]) == 1000 and value["steps"][999]["create_policy"]["direction"] == 1
    events = yaml.parse(text, Loader=yaml.SafeLoader)
    written = [(e.value, e.implicit) for e in events if isinstance(e, yaml.ScalarEvent) and e.tag is None]
    assert len(written) == 18003  # the binary scalars carry a tag
    assert sorted(resolved) == sorted(set(written)) and len(resolved) == 1021
    assert sorted(built) == ["binary", "bool", "float", "int", "int", "null", "timestamp"]
    assert len(nodes) == 7
    # nothing is kept between loads
    strict_loader(text)
    assert len(resolved) == 2 * 1021 and len(built) == 14


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
    def outcome(base):
        try:
            return ingest._document(base(text))
        except yaml.YAMLError:
            return REJECTED

    assert (outcome(yaml.CSafeLoader), outcome(yaml.SafeLoader)) == KNOWN_DIFFERENCES[text]


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


def _strict(base):
    """The strict load on ``base``, without ``_load_yaml``'s wrapping of its errors."""
    return lambda text: ingest._document(base(text))


def _plain(text):
    return yaml.load(text, Loader=yaml.SafeLoader)


def _outcome(load, text):
    try:
        # repr compares key order too and survives recursive lists
        return "value", repr(load(text))
    # plain PyYAML fails on some tagged scalars with KeyError, IndexError or AttributeError
    except (yaml.YAMLError, ValueError, LookupError, AttributeError, RecursionError):
        return "rejected", None


@pytest.mark.parametrize("base", BASES, ids=lambda base: base.__name__)
@pytest.mark.parametrize("text", ["a: !!bool x\n", "a: !!int ''\n", "a: !!timestamp x\n"])
def test_a_scalar_plain_pyyaml_fails_to_build_is_rejected_by_both(base, text):
    with pytest.raises((KeyError, IndexError, AttributeError)):
        _plain(text)
    assert _outcome(_strict(base), text) == _outcome(_plain, text) == ("rejected", None)


@needs_libyaml
@settings(max_examples=200, deadline=None)
@given(items=_items(_trees, max_size=5), repeat_key=st.booleans())
def test_bases_agree(items, repeat_key):
    if repeat_key and items:
        items = [*items, items[0]]  # a duplicate key
    text = _PREAMBLE + (_render(("map", False, "", items)) if items else "")
    assert _outcome(_strict(yaml.CSafeLoader), text) == _outcome(_strict(yaml.SafeLoader), text), text


# --- plain PyYAML is the oracle ---------------------------------------------


@pytest.mark.parametrize("base", BASES, ids=lambda base: base.__name__)
@settings(max_examples=200, deadline=None)
@given(items=_items(_trees, max_size=5), repeat_key=st.booleans())
def test_loads_what_plain_safe_loader_loads(base, items, repeat_key):
    # the strict loader may refuse more, but never loads what plain
    # PyYAML rejects, and what it loads equals what plain PyYAML loads
    if repeat_key and items:
        items = [*items, items[0]]
    text = _PREAMBLE + (_render(("map", False, "", items)) if items else "")
    strict, plain = _outcome(_strict(base), text), _outcome(_plain, text)
    assert strict[0] == "rejected" or strict == plain, text
