"""Reference loader: ``load_model`` as it was before it built the model in
one pass.

Every directive goes through the checked ``ClassModel`` primitives, which
match each name against the name pattern, and every ``super`` line through
``add_generalization``, which walks the superclass's ancestors. The loader
must give an equal model, or the same error class, message and line.
"""

from __future__ import annotations

from pullup.errors import ModelError, ModelSyntaxError
from pullup.model import ClassModel, Origin, PropKey
from pullup.modelfile import _HEADER


def reference_load(data: bytes | str) -> ClassModel:
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogatepass")
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ModelSyntaxError(f"not valid UTF-8: {exc}") from None

    model = ClassModel()
    current: int | None = None
    pending_supers: list[tuple[int, str, int]] = []  # (entity id, super name, line)
    saw_header = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if not saw_header:
            if line != _HEADER:
                raise ModelSyntaxError(
                    f"line {lineno}: expected header {_HEADER!r}, got {line!r}",
                    line=lineno,
                )
            saw_header = True
            continue
        tokens = line.split()
        directive = tokens[0]
        try:
            if directive == "type":
                if len(tokens) != 2:
                    raise ModelSyntaxError("type needs exactly one name", line=lineno)
                model.add_type(tokens[1])
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
                current = model.add_entity(tokens[1], origin)
            elif directive == "prop":
                if current is None:
                    raise ModelSyntaxError("prop before any entity", line=lineno)
                if len(tokens) != 3:
                    raise ModelSyntaxError(
                        "prop needs a name and a type", line=lineno
                    )
                model.add_property(current, PropKey(tokens[1], tokens[2]))
            elif directive == "super":
                if current is None:
                    raise ModelSyntaxError("super before any entity", line=lineno)
                if len(tokens) != 2:
                    raise ModelSyntaxError(
                        "super needs exactly one entity name", line=lineno
                    )
                pending_supers.append((current, tokens[1], lineno))
            else:
                raise ModelSyntaxError(
                    f"unknown directive {directive!r}", line=lineno
                )
        except ModelSyntaxError:
            raise
        except ModelError as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None

    if not saw_header:
        raise ModelSyntaxError(f"empty document, expected header {_HEADER!r}")

    for sub, super_name, lineno in pending_supers:
        try:
            model.add_generalization(sub, model.entity_id(super_name))
        except ModelError as exc:
            raise type(exc)(f"line {lineno}: {exc}") from None
    return model
