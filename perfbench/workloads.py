"""The benchmark's workloads: which generator specs each one runs.

A workload is a list of ``(family, scale, model_seed)`` triples drawn from
the run's ``--seed``; the same seed always gives the same list. The draw uses
a string-seeded ``random.Random``, which does not depend on
``PYTHONHASHSEED``.
"""

from __future__ import annotations

import random

# flat: rule 3 fires once per pass and every pass re-ranks all superclasses
# and the whole top-level set, so the quadratic fixpoint takes nearly all the
# time. Five models per sweep give five samples per sweep and average out the
# seed-to-seed spread in group sizes.
FLAT_MODELS = 5
FLAT_SCALE = 150

# star: the size acceptance criterion 8 runs (~97k elements); the fixpoint
# ends after 3 passes, so per-entity work in model, modelfile, metrics and
# the multiple-inheritance pass dominates.
STAR_SCALE = 5000

# corpus: many small diagrams from all three families, so that per-call fixed
# costs weigh and no single model dominates a sweep. Every (family, scale)
# pair of the grid occurs once and only the generator seeds and the order
# are drawn, so the corpus's size and make-up hardly move from seed to seed.
CORPUS_FAMILIES = ("flat", "star", "mixed")
CORPUS_SCALES = range(5, 55)

NAMES = ("flat", "star", "corpus")


def specs(workload: str, seed: int) -> list[tuple[str, int, int]]:
    """The ``(family, scale, model_seed)`` triples of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "flat":
        return [("flat", FLAT_SCALE, rng.randrange(2**31)) for _ in range(FLAT_MODELS)]
    if workload == "star":
        return [("star", STAR_SCALE, rng.randrange(2**31))]
    if workload == "corpus":
        grid = [(f, s) for f in CORPUS_FAMILIES for s in CORPUS_SCALES]
        rng.shuffle(grid)
        return [(f, s, rng.randrange(2**31)) for f, s in grid]
    raise ValueError(f"unknown workload {workload!r}")
