"""Independent test oracles.

Nothing here uses the analysis, rules, or engine modules: the brute force
works on bare declaration multisets, and the greedy baseline drives only the
model-core mutation primitives, one property at a time.
"""

from __future__ import annotations

import itertools

from pullup.model import ClassModel, PropKey

# -- brute-force minimum duplication ------------------------------------

_memo: dict[tuple, int] = {}


def _canon(decl_sets):
    return tuple(sorted(decl_sets, key=lambda s: sorted(s)))


def _dup(decl_sets) -> int:
    counts: dict = {}
    for s in decl_sets:
        for k in s:
            counts[k] = counts.get(k, 0) + 1
    return sum(n - 1 for n in counts.values() if n > 1)


def min_duplication(decl_sets) -> int:
    """Minimum duplication reachable by any legal pull-up sequence.

    A move picks one duplicated key and at least two of its declarers, strips
    the key from them, and declares it on a fresh class. Edges never block a
    move (a fresh superclass cannot create a cycle), so the state is just the
    multiset of declared-key sets.
    """
    state = _canon(tuple(frozenset(s) for s in decl_sets))
    return _search(state)


def _search(state) -> int:
    cached = _memo.get(state)
    if cached is not None:
        return cached
    best = _dup(state)
    if best == 0:
        _memo[state] = 0
        return 0
    keys = set().union(*state)
    for key in keys:
        owners = [i for i, s in enumerate(state) if key in s]
        if len(owners) < 2:
            continue
        for size in range(2, len(owners) + 1):
            for subset in itertools.combinations(owners, size):
                chosen = set(subset)
                nxt = [
                    (s - {key} if i in chosen else s) for i, s in enumerate(state)
                ]
                nxt.append(frozenset({key}))
                best = min(best, _search(_canon(tuple(nxt))))
                if best == 0:
                    _memo[state] = 0
                    return 0
    _memo[state] = best
    return best


def model_decl_sets(model: ClassModel):
    return tuple(frozenset(e.prop_keys()) for e in model.entities())


# -- tiny-model enumeration ---------------------------------------------


def enumerate_tiny_models(max_entities=5, n_keys=4):
    """All flat models up to the given size, deduplicated up to renaming of
    entities (order) and keys (permutation). Yields tuples of sorted
    key-index tuples, one per entity.
    """
    key_range = range(n_keys)
    subsets = [
        frozenset(c)
        for r in range(n_keys + 1)
        for c in itertools.combinations(key_range, r)
    ]
    perms = list(itertools.permutations(key_range))
    seen = set()
    out = []
    for n in range(1, max_entities + 1):
        for combo in itertools.combinations_with_replacement(subsets, n):
            canon = min(
                tuple(sorted(tuple(sorted(p[k] for k in s)) for s in combo))
                for p in perms
            )
            if canon not in seen:
                seen.add(canon)
                out.append(canon)
    return out


def tiny_model(decl_tuples) -> ClassModel:
    model = ClassModel()
    model.add_type("T")
    for i, keys in enumerate(decl_tuples):
        eid = model.add_entity(f"E{i}")
        for k in keys:
            model.add_property(eid, PropKey(f"k{k}", "T"))
    return model


# -- greedy one-property-at-a-time baseline ------------------------------


def _shared_single_keys(model: ClassModel, ids):
    owners_by_key: dict[PropKey, set[int]] = {}
    for eid in ids:
        for key in model.entity(eid).prop_keys():
            owners_by_key.setdefault(key, set()).add(eid)
    return {k: o for k, o in owners_by_key.items() if len(o) >= 2}


def greedy_single_key_baseline(model: ClassModel) -> int:
    """Core-style restructuring that pulls one property at a time.

    Each step picks the single key shared by the most classes (within one
    superclass's subclasses, or among top-level classes) and pulls exactly
    that key up. Returns the final declaration count.
    """
    m = model.clone()
    while True:
        candidates = []  # (-owners, key, super-name-or-'', super_id, owners)
        for sup in m.entity_ids():
            subs = m.child_map().get(sup, set())
            if len(subs) < 2:
                continue
            sup_names = m.entity(sup).properties.keys()
            for key, owners in _shared_single_keys(m, subs).items():
                if owners == subs and key.prop_name in sup_names:
                    continue  # cannot hoist into a class already using the name
                candidates.append(
                    (-len(owners), key, m.entity(sup).name, sup, owners)
                )
        tops = {eid for eid in m.entity_ids() if m.is_top_level(eid)}
        for key, owners in _shared_single_keys(m, tops).items():
            candidates.append((-len(owners), key, "", None, owners))
        if not candidates:
            break
        _, key, _, sup, owners = min(candidates)
        if sup is not None and owners == m.child_map().get(sup, set()):
            m.add_property(sup, key)
            for eid in sorted(owners):
                m.delete_property(eid, key.prop_name)
        else:
            nc = m.create_entity()
            m.add_property(nc, key)
            for eid in sorted(owners):
                m.delete_property(eid, key.prop_name)
                if sup is not None and m.has_generalization(eid, sup):
                    m.delete_generalization(eid, sup)
                m.add_generalization(eid, nc)
            if sup is not None:
                m.add_generalization(nc, sup)
    return sum(len(e.properties) for e in m.entities())
