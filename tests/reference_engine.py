"""Reference core fixpoint: every pass re-ranks every superclass and the
whole top-level set.

This is the engine's full re-ranking loop before it was made incremental,
built on ``apply_shared_superclass_rule`` (which ranks with
``common_props``) alone. The incremental engine must fire the same rules in
the same order, take the same number of passes and save the same bytes.
"""

from __future__ import annotations

from pullup.engine import EngineOptions
from pullup.rules import apply_shared_superclass_rule, exploit_multiple_inheritance


def reference_restructure(model, options=None):
    """Transform ``model`` in place; return ``(applications, iterations)``."""
    options = options or EngineOptions()
    applications = []
    iterations = 0
    while True:
        applied = False
        for eid in model.entity_ids():
            subs = model.direct_subclasses(eid)
            if not subs:
                continue
            app = apply_shared_superclass_rule(model, eid, subs, options.min_subclasses)
            if app is not None:
                applications.append(app)
                applied = True
        tops = {eid for eid in model.entity_ids() if model.is_top_level(eid)}
        app = apply_shared_superclass_rule(model, None, tops, options.min_subclasses)
        if app is not None:
            applications.append(app)
            applied = True
        iterations += 1
        if not applied:
            break
    if options.multi_inheritance:
        exploit_multiple_inheritance(model, on_apply=applications.append)
    return applications, iterations
