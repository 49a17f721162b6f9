"""Independent checks on restructured model documents.

The checker parses the v1 text format itself and imports nothing from
pullup, so a fault in the engine, the rules or the analysis cannot hide
itself here. ``check`` compares an output document with its input and
returns one string per violation, each starting with its category:

* ``malformed`` - the output does not parse, names an unknown superclass or
  declares an entity twice;
* ``lost-entity`` - an original class is missing or marked synthesized;
* ``cycle`` - the generalization graph has a directed cycle;
* ``specialization`` - the relation among the original classes changed;
* ``leaf-props`` - an original leaf's own plus inherited keys changed;
* ``duplicate-key`` - a (name, type) key is declared by two entities;
* ``declaration-count`` - declarations differ from the input's distinct keys.

The last two only hold after the multiple-inheritance pass (``full=True``).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

HEADER = "classmodel v1"


class CheckError(Exception):
    """A document the checker cannot parse."""


@dataclass
class Doc:
    """A parsed model document: entities in file order."""

    types: list[str] = field(default_factory=list)
    names: list[str] = field(default_factory=list)
    synthesized: set[str] = field(default_factory=set)
    props: dict[str, list[tuple[str, str]]] = field(default_factory=dict)
    supers: dict[str, list[str]] = field(default_factory=dict)

    def declarations(self) -> int:
        return sum(len(p) for p in self.props.values())

    def elements(self) -> int:
        """Entities + property declarations + generalizations."""
        return (
            len(self.names)
            + self.declarations()
            + sum(len(s) for s in self.supers.values())
        )


def parse(data: bytes) -> Doc:
    doc = Doc()
    current = None
    saw_header = False
    for lineno, raw in enumerate(data.decode("utf-8").splitlines(), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if not saw_header:
            if " ".join(tokens) != HEADER:
                raise CheckError(f"line {lineno}: missing header")
            saw_header = True
            continue
        directive, rest = tokens[0], tokens[1:]
        if directive == "type" and len(rest) == 1:
            doc.types.append(rest[0])
        elif directive == "entity" and rest and len(rest) <= 2:
            current = rest[0]
            if current in doc.props:
                raise CheckError(f"line {lineno}: entity {current} declared twice")
            doc.names.append(current)
            doc.props[current] = []
            doc.supers[current] = []
            if rest[1:] == ["synthesized"]:
                doc.synthesized.add(current)
            elif rest[1:]:
                raise CheckError(f"line {lineno}: bad entity line")
        elif directive == "prop" and len(rest) == 2 and current is not None:
            doc.props[current].append((rest[0], rest[1]))
        elif directive == "super" and len(rest) == 1 and current is not None:
            doc.supers[current].append(rest[0])
        else:
            raise CheckError(f"line {lineno}: cannot parse {raw!r}")
    if not saw_header:
        raise CheckError("empty document")
    return doc


def ancestors(doc: Doc, name: str) -> set[str]:
    """Transitive superclasses; safe on cyclic graphs."""
    seen: set[str] = set()
    stack = list(doc.supers[name])
    while stack:
        cur = stack.pop()
        if cur not in seen:
            seen.add(cur)
            stack.extend(doc.supers[cur])
    return seen


def flattened(doc: Doc, name: str) -> set[tuple[str, str]]:
    keys = set(doc.props[name])
    for anc in ancestors(doc, name):
        keys.update(doc.props[anc])
    return keys


def has_cycle(doc: Doc) -> bool:
    indeg = Counter(s for subs in doc.supers.values() for s in subs)
    queue = [n for n in doc.names if indeg[n] == 0]
    peeled = 0
    while queue:
        cur = queue.pop()
        peeled += 1
        for sup in doc.supers[cur]:
            indeg[sup] -= 1
            if indeg[sup] == 0:
                queue.append(sup)
    return peeled != len(doc.names)


def check(inp: Doc, out: Doc, full: bool = True) -> list[str]:
    """Violations of ``out`` as a restructuring of ``inp``."""
    known = set(out.names)
    dangling = sorted(
        {s for subs in out.supers.values() for s in subs if s not in known}
    )
    if dangling:
        return [f"malformed: unknown superclass {n}" for n in dangling]

    originals = [n for n in inp.names if n not in inp.synthesized]
    lost = [n for n in originals if n not in known or n in out.synthesized]
    if lost:
        return [f"lost-entity: {n}" for n in lost]

    violations = []
    if has_cycle(out):
        violations.append("cycle: the generalization graph has a cycle")

    original_set = set(originals)
    has_sub = {s for subs in inp.supers.values() for s in subs}
    for name in originals:
        before = ancestors(inp, name) & original_set
        after = ancestors(out, name) & original_set
        if before != after:
            violations.append(
                f"specialization: {name} above {sorted(before)} became {sorted(after)}"
            )
        if name not in has_sub and flattened(inp, name) != flattened(out, name):
            violations.append(f"leaf-props: {name} changed its flattened properties")

    if full:
        owners = Counter(k for props in out.props.values() for k in props)
        for key, n in sorted(owners.items()):
            if n > 1:
                violations.append(f"duplicate-key: {key} declared by {n} entities")
        distinct = len({k for props in inp.props.values() for k in props})
        if out.declarations() != distinct:
            violations.append(
                f"declaration-count: {out.declarations()} declarations for "
                f"{distinct} distinct input keys"
            )
    return violations


# -- fixtures and self-test ---------------------------------------------------

# Results known by hand for the core rules alone (no multiple inheritance):
# (file, declarations before, declarations after, classes created).
FIXTURES = (
    ("left.model", 8, 6, 1),
    ("right.model", 7, 5, 1),
)


def check_fixtures(fixture_dir: Path, transform_core) -> list[str]:
    """Run ``transform_core`` (bytes -> bytes, core rules only) on each fixture."""
    problems = []
    for fname, before, after, created in FIXTURES:
        data = (fixture_dir / fname).read_bytes()
        inp, out = parse(data), parse(transform_core(data))
        got = (inp.declarations(), out.declarations(), len(out.synthesized))
        if got != (before, after, created):
            problems.append(
                f"fixture {fname}: (before, after, created) = {got}, "
                f"expected {(before, after, created)}"
            )
        problems += [f"fixture {fname}: {v}" for v in check(inp, out, full=False)]
    return problems


class NoTarget(Exception):
    """The sample offers no place for a corruption."""


def _first(items):
    for item in items:
        return item
    raise NoTarget


def _dup_key(inp: Doc, doc: Doc) -> None:
    src = _first(n for n in doc.names if doc.props[n])
    key = doc.props[src][0]
    dst = _first(
        n for n in doc.names
        if n != src and all(p != key[0] for p, _ in doc.props[n])
    )
    doc.props[dst].append(key)


def _drop_leaf_prop(inp: Doc, doc: Doc) -> None:
    has_sub = {s for subs in inp.supers.values() for s in subs}
    leaf = _first(
        n for n in inp.names
        if n not in has_sub and n not in doc.synthesized and doc.props[n]
    )
    doc.props[leaf].pop()


def _cut_original_edge(inp: Doc, doc: Doc) -> None:
    # An edge sub -> sup between originals with no other path from sub to sup.
    for sub in doc.names:
        for sup in doc.supers[sub]:
            if sub in doc.synthesized or sup in doc.synthesized:
                continue
            others = [s for s in doc.supers[sub] if s != sup]
            if all(s != sup and sup not in ancestors(doc, s) for s in others):
                doc.supers[sub].remove(sup)
                return
    raise NoTarget


def _add_cycle(inp: Doc, doc: Doc) -> None:
    sub = _first(n for n in doc.names if doc.supers[n])
    doc.supers[doc.supers[sub][0]].append(sub)


CORRUPTIONS = (
    ("a key declared twice", _dup_key, "duplicate-key"),
    ("a dropped leaf property", _drop_leaf_prop, "leaf-props"),
    ("a removed edge between originals", _cut_original_edge, "specialization"),
    ("a cycle", _add_cycle, "cycle"),
)


def self_test(samples: list[tuple[bytes, bytes]]) -> list[str]:
    """Corrupt each correct (input, output) pair and expect rejection."""
    problems = []
    for i, (inp_bytes, out_bytes) in enumerate(samples):
        inp = parse(inp_bytes)
        clean = check(inp, parse(out_bytes))
        if clean:
            problems.append(f"self-test sample {i}: clean output rejected: {clean}")
        for what, corrupt, category in CORRUPTIONS:
            doc = parse(out_bytes)
            try:
                corrupt(inp, doc)
            except NoTarget:
                problems.append(f"self-test sample {i}: no place for {what}")
                continue
            found = check(inp, doc)
            if not any(v.startswith(category + ":") for v in found):
                problems.append(
                    f"self-test sample {i}: {what} not rejected as {category}"
                )
    return problems
