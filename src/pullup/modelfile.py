"""The versioned plain-text model format.

A document looks like::

    classmodel v1
    type T
    entity A
      prop a T
      prop b T
    entity NewClass1 synthesized
      prop c T
    entity B
      super NewClass1

Blank lines and ``#`` comments are allowed. Names are whitespace-free tokens.
``save_model`` emits the canonical form: types sorted by name, entities in
model order, properties in declaration order, superclasses sorted by name.
Loading a saved model yields an equal model; saving a loaded canonical
document yields identical bytes.
"""

from __future__ import annotations

from .errors import ModelError, ModelSyntaxError
from .model import ClassModel, ModelBuilder, Origin

FORMAT_VERSION = 1
_HEADER = f"classmodel v{FORMAT_VERSION}"


def save_model(model: ClassModel) -> bytes:
    """Serialize ``model`` into canonical document bytes."""
    names = {e.id: e.name for e in model.entities()}
    parents = model.parent_map()
    lines = [_HEADER]
    lines += [f"type {t}" for t in model.type_names()]
    append = lines.append
    for e in model.entities():
        marker = " synthesized" if e.origin is Origin.SYNTHESIZED else ""
        append(f"entity {e.name}{marker}")
        for name, type_name in e.properties.values():
            append(f"  prop {name} {type_name}")
        supers = parents.get(e.id)
        if supers:
            for name in sorted([names[s] for s in supers]):
                append(f"  super {name}")
    append("")
    return "\n".join(lines).encode("utf-8")


def load_model(data: bytes | str) -> ClassModel:
    """Parse document bytes into a validated :class:`ClassModel`. A ``str``
    is read as its UTF-8 encoding, so a lone surrogate is invalid UTF-8.

    Errors carry the 1-based line number of the offending directive. Forward
    references in ``super`` lines are allowed; everything else must be
    declared before use. A document that loads does so in time linear in
    its size.
    """
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelSyntaxError(f"not valid UTF-8: {exc}") from None

    lines = enumerate(text.splitlines(), start=1)
    for lineno, raw in lines:
        line = raw.partition("#")[0].strip()
        if line:
            if line != _HEADER:
                raise ModelSyntaxError(
                    f"line {lineno}: expected header {_HEADER!r}, got {line!r}",
                    line=lineno,
                )
            break
    else:
        raise ModelSyntaxError(f"empty document, expected header {_HEADER!r}")

    build = ModelBuilder()
    current: int | None = None
    for lineno, raw in lines:
        tokens = (raw.partition("#")[0] if "#" in raw else raw).split()
        if not tokens:
            continue
        directive = tokens[0]
        try:
            if directive == "prop":
                if current is None:
                    raise ModelSyntaxError("prop before any entity", line=lineno)
                if len(tokens) != 3:
                    raise ModelSyntaxError(
                        "prop needs a name and a type", line=lineno
                    )
                build.add_property(tokens[1], tokens[2])
            elif directive == "super":
                if current is None:
                    raise ModelSyntaxError("super before any entity", line=lineno)
                if len(tokens) != 2:
                    raise ModelSyntaxError(
                        "super needs exactly one entity name", line=lineno
                    )
                build.add_super(current, tokens[1], lineno)
            elif directive == "entity":
                if len(tokens) == 2:
                    origin = Origin.ORIGINAL
                elif len(tokens) == 3 and tokens[2] == "synthesized":
                    origin = Origin.SYNTHESIZED
                else:
                    raise ModelSyntaxError(
                        "entity needs a name and optional 'synthesized'",
                        line=lineno,
                    )
                current = build.add_entity(tokens[1], origin)
            elif directive == "type":
                if len(tokens) != 2:
                    raise ModelSyntaxError("type needs exactly one name", line=lineno)
                build.add_type(tokens[1])
            else:
                raise ModelSyntaxError(
                    f"unknown directive {directive!r}", line=lineno
                )
        except ModelSyntaxError:
            raise
        except ModelError as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
    return build.finish()
