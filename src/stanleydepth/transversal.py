"""Independent transversals of subspace families via matroid intersection.

Given subspaces V_1, ..., V_m of K^d (each as a spanning list of
vectors), find a largest set of pairwise linearly independent vectors
picking at most one from each family.  A full transversal (size m)
exists iff every subfamily I satisfies |I| <= dim sum of V_i over I;
the augmenting-path search below decides this in polynomial time.

The common-independent-set structure: ground elements are (family,
spanning vector) pairs; one matroid restricts picks to one per family,
the other to linearly independent vector sets.  Augmenting along a
shortest source-to-sink path in the exchange digraph grows the common
independent set until maximum.

A greedy seed decides most calls: family by family, it picks the first
vector that grows an `IntegerEchelon` of the picks so far, on integer
rows.  A seed that fills every family or K^d is the answer, and no
ground set is built; the ground set and the augmenting-path search come
only when the seed falls short of both.  The exchange arcs come from
one tagged `IntegerEchelon` of the rows [vector(x) | e_x] over the
picks x, pushed once per path.  The remainder of [vector(t) | 0], pushed,
read and popped, leads in the vector part iff t is a sink; otherwise its
tag part is a multiple of minus t's coordinates in the picks, and its
support is t's fundamental circuit, the picks x with an arc t -> x.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

from .fields import Field
from .linalg import IntegerEchelon


def max_independent_transversal(
    field: Field, ambient_dim: int, families: Sequence[Sequence]
) -> list[tuple[int, tuple]]:
    """A maximum partial transversal as a list of (family index, vector).

    The search first picks, family by family, the first vector outside the
    span of the picks so far.  These are exactly the one-arc augmentations
    an empty start would make first (a family skipped once stays inside
    the growing span), so the result does not depend on the seeding.
    """
    picks = IntegerEchelon(field, ambient_dim)
    seed = {}
    for i, vectors in enumerate(families):
        for j, v in enumerate(vectors):
            if picks.push(v):
                seed[i] = j
                break
    if len(seed) in (len(families), ambient_dim):
        return [(i, tuple(families[i][j])) for i, j in seed.items()]
    items: list[tuple[int, tuple]] = []
    selected: set[int] = set()
    for i, vectors in enumerate(families):
        if i in seed:
            selected.add(len(items) + seed[i])
        items.extend((i, tuple(v)) for v in vectors)
    while True:
        path = _augmenting_path(field, ambient_dim, items, selected)
        if path is None:
            return [items[t] for t in sorted(selected)]
        selected.symmetric_difference_update(path)


def _augmenting_path(f, ambient_dim, items, selected):
    """Shortest augmenting path in the exchange digraph, or None at maximum."""
    sel = sorted(selected)
    used_classes = {items[t][0] for t in sel}
    tagged = IntegerEchelon(f, ambient_dim + len(sel))
    for x in sel:
        tagged.push(items[x][1] + tuple(int(y == x) for y in sel))
    untagged = (0,) * len(sel)

    outside = [t for t in range(len(items)) if t not in selected]
    sources = [t for t in outside if items[t][0] not in used_classes]
    sinks: set[int] = set()
    circuits: dict[int, set[int]] = {}
    for t in outside:
        # a zero vector adds no row: it is no sink and has no arcs out
        if tagged.push(items[t][1] + untagged):
            lead, remainder = tagged.rows[-1]
            tagged.pop()
            if lead < ambient_dim:
                sinks.add(t)
            else:
                circuits[t] = {x for x, c in zip(sel, remainder[ambient_dim:]) if c}

    parent: dict[int, int | None] = {}
    queue: deque[int] = deque()
    for t in sources:
        parent[t] = None
        queue.append(t)
        if t in sinks:
            return [t]

    while queue:
        u = queue.popleft()
        if u not in selected:
            # u -> x for selected x in the fundamental circuit of u.
            for x in circuits.get(u, ()):
                if x not in parent:
                    parent[x] = u
                    queue.append(x)
        else:
            # x -> y restores the one-per-family condition: y must reuse
            # the family vacated by x (fresh families were sources already).
            family = items[u][0]
            for y in outside:
                if y not in parent and items[y][0] == family:
                    parent[y] = u
                    if y in sinks:
                        path = [y]
                        while parent[path[-1]] is not None:
                            path.append(parent[path[-1]])
                        return path
                    queue.append(y)
    return None
