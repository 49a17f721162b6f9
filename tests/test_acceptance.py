"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import math
import statistics
import time
from functools import partial

import pytest

from pullup.analysis import common_props
from pullup.engine import EngineOptions, restructure
from pullup.generate import Family, GeneratorSpec, element_count, generate_model
from pullup.metrics import hierarchy_restriction_equal
from pullup.model import Origin, PropKey
from pullup.modelfile import load_model, save_model
from pullup.rules import RuleKind

from conftest import left_example, names, right_example
from large_shapes import (
    comb,
    deep_bottom,
    fanout_model,
    many_parents,
    rooted_model,
    shadowed_diamond_model,
    wide_model,
)
from oracle import (
    enumerate_tiny_models,
    greedy_single_key_baseline,
    min_duplication,
    model_decl_sets,
    tiny_model,
)


def _passed(name):
    print(f"ACCEPTANCE {name}: PASS")


def _corpus_specs(count, scales, seed_base):
    families = [Family.FLAT_SHARED, Family.STAR_HIERARCHIES, Family.MIXED]
    return [
        GeneratorSpec(families[i % 3], scales[i % len(scales)], seed_base + i)
        for i in range(count)
    ]


def test_criterion_1_left_example_reproduction():
    start = time.perf_counter()
    m = left_example()
    report = restructure(m, EngineOptions())
    elapsed = time.perf_counter() - start
    assert report.metrics_after.declaration_count == 6
    synthesized = [e for e in m.entities() if e.origin is Origin.SYNTHESIZED]
    assert len(synthesized) == 1
    assert m.duplicated_keys() == {PropKey("a", "T"), PropKey("b", "T")}
    assert elapsed < 1.0
    _passed("1 left-example reproduction")


def test_criterion_2_right_example_reproduction():
    start = time.perf_counter()
    m = right_example()
    report = restructure(m, EngineOptions())
    elapsed = time.perf_counter() - start
    assert report.metrics_before.declaration_count == 7
    assert report.metrics_after.declaration_count == 5
    synthesized = [e for e in m.entities() if e.origin is Origin.SYNTHESIZED]
    assert len(synthesized) == 1
    assert m.duplicated_keys() == {PropKey("d", "T")}
    assert elapsed < 1.0
    _passed("2 right-example reproduction")


def test_criterion_3_heuristic_1_discrimination():
    m = left_example()
    tops = {eid for eid in m.entity_ids() if m.is_top_level(eid)}
    first = common_props(m, tops)[0]
    assert [k.prop_name for k in first.keys] == ["c"]
    assert names(m, first.owners) == ["B", "C", "D"]
    _passed("3 heuristic-1 discrimination")


def test_criterion_4_heuristic_2_discrimination():
    m = right_example()
    tops = {eid for eid in m.entity_ids() if m.is_top_level(eid)}
    first = common_props(m, tops)[0]
    assert [k.prop_name for k in first.keys] == ["a", "b"]
    assert names(m, first.owners) == ["P", "Q"]
    _passed("4 heuristic-2 discrimination")


def test_criterion_5_effectiveness_200_models():
    start = time.perf_counter()
    for m in (left_example(), right_example()):
        report = restructure(m, EngineOptions(multi_inheritance=True))
        assert report.metrics_after.duplication_count == 0
    scales = [13, 21, 34, 55, 17, 29, 47, 72, 38, 135]
    for spec in _corpus_specs(200, scales, seed_base=50_000):
        m = generate_model(spec)
        assert 50 <= element_count(m) <= 5000, spec
        restructure(m, EngineOptions(multi_inheritance=True))
        assert m.duplication_count == 0, spec
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passed("5 effectiveness on fixtures + 200 generated models")


def test_criterion_6_property_suite():
    specs = _corpus_specs(204, scales=[2, 3, 5, 8, 12, 15], seed_base=60_000)
    for spec in specs:
        original = generate_model(spec)
        flat_before = {
            e.id: original.flattened_props(e.id) for e in original.entities()
        }
        leaves = {
            e.id
            for e in original.entities()
            if not original.child_map().get(e.id)
        }
        for multi in (False, True):
            m = original.clone()
            options = EngineOptions(multi_inheritance=multi)
            restructure(m, options)
            # (a) DAG still acyclic, all invariants hold
            assert m.validate() == [], spec
            # (b) flattened sets preserved, exactly for original input leaves
            for e in original.entities():
                after = m.flattened_props(e.id)
                assert after >= flat_before[e.id], spec
                if e.id in leaves:
                    assert after == flat_before[e.id], spec
            # (c) specialization among original entities unchanged
            assert hierarchy_restriction_equal(original, m), spec
            # (d) idempotence at the fixpoint
            again = restructure(m, options)
            assert again.applications == [], spec
            # (e) determinism: regenerate, rerun, byte-identical output
            m2 = generate_model(spec)
            restructure(m2, options)
            assert save_model(m2) == save_model(m), spec
    _passed("6 property suite over 204 generated models")


def test_criterion_7_oracle_equivalence_tiny_models():
    tiny = enumerate_tiny_models(max_entities=5, n_keys=4)
    assert len(tiny) > 500
    for decl_tuples in tiny:
        m = tiny_model(decl_tuples)
        best = min_duplication(model_decl_sets(m))
        assert best == 0

        multi = m.clone()
        restructure(multi, EngineOptions(multi_inheritance=True))
        assert multi.duplication_count == best, decl_tuples

        core = m.clone()
        report = restructure(core, EngineOptions())
        baseline = greedy_single_key_baseline(m)
        assert report.metrics_after.declaration_count <= baseline, decl_tuples
    _passed(f"7 oracle equivalence on {len(tiny)} tiny models")


def _gate_ladder(counts, times, max_slope=2.2):
    """Gate the largest rung's time and the log-log growth slope of a ladder
    ending at ~100k elements."""
    assert counts[-1] >= 80_000  # the big run really is ~100k elements
    assert times[-1] < 60.0
    slope = statistics.linear_regression(  # ordinary least squares
        [math.log(c) for c in counts], [math.log(t) for t in times]
    ).slope
    assert slope <= max_slope, (counts, times, slope)
    return (
        f"({counts[-1]} elements in {times[-1]:.1f}s, log-log slope {slope:.2f})"
    )


def _scaling_run(family, scales):
    """Restructure a seeded ladder of ``family`` models ending at ~100k
    elements; gate the largest run's time and the log-log growth slope."""
    counts, times = [], []
    for scale in scales:
        m = generate_model(GeneratorSpec(family, scale, seed=8))
        n = element_count(m)
        start = time.perf_counter()
        restructure(m, EngineOptions(multi_inheritance=True))
        elapsed = time.perf_counter() - start
        counts.append(n)
        times.append(elapsed)
        assert m.duplication_count == 0
    return _gate_ladder(counts, times)


def _chain_document(n):
    """``E<i>`` declares ``p<i>`` and specializes ``E<i-1>``: one chain ``n``
    classes deep."""
    lines = ["classmodel v1", "type T"]
    for i in range(n):
        lines += [f"entity E{i}", f"  prop p{i} T"]
        if i:
            lines.append(f"  super E{i - 1}")
    return ("\n".join(lines) + "\n").encode()


def _lattice_document(n):
    """Layers of two classes, each specializing both classes of the layer
    above: a stack of diamonds ``n // 2`` layers deep."""
    lines = ["classmodel v1", "type T"]
    for i in range(n):
        lines += [f"entity E{i}", f"  prop p{i} T"]
        if i >= 2:
            first = i - i % 2 - 2
            lines += [f"  super E{first}", f"  super E{first + 1}"]
    return ("\n".join(lines) + "\n").encode()


def _load_run(document, sizes):
    """Load a ladder of documents ending at ~100k elements; gate the largest
    load's time and the log-log growth slope."""
    counts, times = [], []
    for n in sizes:
        data = document(n)
        start = time.perf_counter()
        m = load_model(data)
        elapsed = time.perf_counter() - start
        counts.append(element_count(m))
        times.append(elapsed)
        assert len(m) == n and m.validate() == []
    return _gate_ladder(counts, times)


def test_criterion_8_desk_scale_performance():
    result = _scaling_run(Family.STAR_HIERARCHIES, (500, 1250, 2500, 5000))
    _passed(f"8 desk-scale performance {result}")


def test_criterion_8_flat_scale_performance():
    result = _scaling_run(Family.FLAT_SHARED, (700, 1400, 2800, 5600))
    _passed(f"8 flat-scale performance {result}")


def test_criterion_8_mixed_scale_performance():
    result = _scaling_run(Family.MIXED, (625, 1250, 2500, 5000))
    _passed(f"8 mixed-scale performance {result}")


def test_criterion_8_deep_chain_load_performance():
    result = _load_run(_chain_document, (4200, 8400, 16800, 33600))
    _passed(f"8 deep-chain load performance {result}")


def test_criterion_8_diamond_lattice_load_performance():
    result = _load_run(_lattice_document, (3150, 6300, 12600, 25200))
    _passed(f"8 diamond-lattice load performance {result}")


def _best_of_3_ladder(build, sizes, max_slope, min_subclasses=2):
    """Restructure a ladder of ``build(size, seed)`` models ending at ~100k
    elements, each rung timed as the best of 3. ``max_slope`` must fail a
    quadratic, which 2.2, the other ladders' bound, lets pass."""
    options = EngineOptions(multi_inheritance=True, min_subclasses=min_subclasses)
    counts, times = [], []
    for size in sizes:
        model = build(size, seed=8)
        best = math.inf
        for _ in range(3):
            m = model.clone()
            start = time.perf_counter()
            restructure(m, options)
            best = min(best, time.perf_counter() - start)
            assert m.duplication_count == 0
        counts.append(element_count(model))
        times.append(best)
    return _gate_ladder(counts, times, max_slope)


def test_criterion_8_wide_class_performance():
    # A firing must cost the keys it moves, not the size of the classes
    # squared.
    result = _best_of_3_ladder(wide_model, (4000, 8000, 16000), max_slope=1.5)
    _passed(f"8 wide-class performance {result}")


def test_criterion_8_wide_class_fanout_performance():
    # Linear work over this shape's 40k classes reads a slope of up to ~1.5
    # from cache misses alone on a shared 2-vCPU host; a quadratic reads
    # over 2.
    result = _best_of_3_ladder(fanout_model, (5000, 10000, 20000), max_slope=1.7)
    _passed(f"8 wide-class fan-out performance {result}")


def test_criterion_8_shadowed_diamond_performance():
    result = _best_of_3_ladder(
        shadowed_diamond_model, (900, 1800, 3600, 7200), max_slope=1.7
    )
    _passed(f"8 shadowed-diamond performance {result}")


def test_criterion_8_deep_bottom_performance():
    # Rule 2 fires once per pass below a chain 7 * pairs classes deep: a
    # firing must not walk the chain above it.
    result = _best_of_3_ladder(
        lambda pairs, seed: deep_bottom(7 * pairs, pairs),
        (625, 1250, 2500, 5000),
        max_slope=1.7,
    )
    _passed(f"8 deep-bottom performance {result}")


def test_criterion_8_comb_performance():
    # Rule 2 fires below every class of a chain, at every depth.
    result = _best_of_3_ladder(
        lambda depth, seed: comb(depth), (1563, 3125, 6250, 12500), max_slope=1.7
    )
    _passed(f"8 comb performance {result}")


@pytest.mark.parametrize("min_subclasses", [1, 2])
def test_criterion_8_many_parents_performance(min_subclasses):
    # One class in every one of p two-class sets that fire: a set must be
    # ranked without reading that class's p keys, and a firing must not walk
    # its p parents.
    result = _best_of_3_ladder(
        lambda p, seed: many_parents(p),
        (2000, 4000, 8000, 16000),
        max_slope=1.7,
        min_subclasses=min_subclasses,
    )
    _passed(f"8 many-parents min_subclasses={min_subclasses} performance {result}")


@pytest.mark.parametrize("family", ["flat", "mixed"])
def test_criterion_8_rooted_performance(family):
    # One root over everything: rule 2 fires on it once per pass, so ranking
    # its children from scratch at every attempt grows quadratically.
    result = _best_of_3_ladder(
        partial(rooted_model, family), (700, 1400, 2800, 5600), max_slope=1.7
    )
    _passed(f"8 rooted {family} performance {result}")


def test_criterion_9_termination_guard():
    # The engine checks, per application, that the declaration count strictly
    # decreased whenever min_subclasses >= 2; the corpus below runs entirely
    # under that check, an explicit RuleError that ``python -O`` keeps
    # (test_engine.py::test_termination_guard_survives_optimize_flag).
    specs = _corpus_specs(204, scales=[2, 4, 7, 11, 14], seed_base=90_000)
    total_applications = 0
    for spec in specs:
        m = generate_model(spec)
        report = restructure(m, EngineOptions(multi_inheritance=True))
        total_applications += len(report.applications)
        for app in report.applications:
            assert app.keys and app.sources
            if app.rule is RuleKind.MULTI_INHERIT_REUSE:
                assert len(app.sources) >= 1
            else:
                assert len(app.sources) >= 2
    assert total_applications > 200
    _passed(
        f"9 termination guard ({total_applications} applications, "
        "all strictly decreasing"
        ")"
    )
