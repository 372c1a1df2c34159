"""Exact arbitrary-precision counts of simple graphs with prescribed degrees
that avoid a forbidden graph, plus exact subgraph/overlap probabilities.

The counter assigns whole vertex neighbourhoods one pivot at a time, taking
the highest residual degree among vertices that still touch a live
forbidden edge (one whose endpoints both have residual degree left).  The
other live vertices are exchangeable, so they are kept as a multiset of
residual-degree classes: each pivot branches over subsets of the constrained
vertices it may join, times compositions of the rest of its degree across
the classes with binomial weights.  Those class steps carry no vertex label,
so they are read from one table that every pivot, state, call and instance
with the same free multiset shares.  A vertex whose forbidden neighbours are
all spent joins the classes.  The states (constrained residuals, classes)
are memoized in a table that the scope (Y, weight) owns, shared by every
count under that Y and weight whatever d is: a recursion writes only into
its own scope's table, so no thread or re-entrant count mixes two Ys.  They
are keyed by their orbit under Y's twin classes and isomorphic components,
which keeps a state's count; a Y with neither keeps the labelled key.  Once
no forbidden edge is live the count is a memoized recursion on the class
multiset alone.  The tables grow freely within a count, so none evicts a
sub-result it still needs; a count starts by emptying the free or step
table past FREE_MEMO_SIZE / STEP_MEMO_SIZE entries, and the scopes once
they and their states pass STATE_MEMO_SIZE.  A count with an empty Y never
reads the scopes.  The overlap law with a graph Y is one pass of the same
recursion that weights each Y-edge taken, so its cost follows the shape of
Y, not 2^|Y|.  Measured cold on one core of a shared 2-core machine,
d = n/2 regular takes 2.0 s at n = 20, near-regular d = 11^10 9^10 10 s
(80,456 free states); with a forbidden triangle 0.04 s at n = 16 and 1.1 s
at n = 20, with a forbidden perfect matching 0.01 s at n = 10, 0.11 s at
n = 12 and 0.7 s at n = 14 (3,898 states; 125 s with labelled keys).
Overlap laws take 0.03 s for a perfect matching (5-regular, n = 10), 0.05 s
for two triangles and 5.6 s for an 8-cycle (6-regular, n = 12; 78,873
states), 0.01 s for K10.  A query with no limit runs at n <= DEFAULT_LIMIT
whatever Y is.  A brute-force enumeration over all 2^C(n,2) graphs checks n <= 6.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import comb

from .graphcore import DegreeSequence, ForbiddenGraph, event_edges, forbidden_for, impossible

DEFAULT_LIMIT = 12    # the n-limit of every exact query that passes no limit
ENUMERATION_LIMIT = 6
FREE_MEMO_SIZE = 1 << 15  # kept between counts; a cold regular n = 20 count fills 24,216
STEP_MEMO_SIZE = 1 << 12  # ~1 KB a key; a cold 7-regular n = 14 matching count fills 3,565
STATE_MEMO_SIZE = 1 << 15  # states and scopes; a cold 8-cycle law (n = 12) fills 78,873


class CountLimitError(ValueError):
    """Instance exceeds the configured exact-counting size limit."""


class UndefinedProbabilityError(ValueError):
    """Conditional probability requested while G(d) = 0."""


def _class_choices(classes: tuple[tuple[int, int], ...], r: int,
                   extra: tuple[int, ...] = ()) -> tuple[tuple[int, tuple], ...]:
    """Every (ways, classes') that joins a pivot to r vertices of classes.

    Taking k_i of the c_i vertices of residual v_i lowers them to v_i - 1 in
    comb(c_i, k_i) ways; vertices that reach 0 drop out.  The residuals in
    extra join classes' unchanged.  classes' is sorted descending, like classes:
    the residuals are distinct, so each lowered group either merges with the
    next class or sits alone between the two.
    """
    room = [0] * (len(classes) + 1)     # room[i]: vertices in classes[i:]
    for i in range(len(classes) - 1, -1, -1):
        room[i] = room[i + 1] + classes[i][1]
    steps: list[tuple[int, tuple]] = []
    if r <= room[0]:
        _walk(classes, room, extra, steps, [], 0, r, 1, 0)
    return tuple(steps)


def _walk(classes: tuple, room: list[int], extra: tuple[int, ...], steps: list, out: list,
          i: int, left: int, ways: int, low: int) -> None:
    """Append to steps each way to take `left` more vertices from classes[i:]; out
    holds classes' of classes[:i], of which low vertices of classes[i - 1] were lowered."""
    if i == len(classes):
        nxt = out + [(classes[-1][0] - 1, low)] if low and classes[-1][0] > 1 else out
        if extra:
            nxt = sorted((Counter(dict(nxt)) + Counter(extra)).items(), reverse=True)
        steps.append((ways, tuple(nxt)))
        return
    v, c = classes[i]
    if low and classes[i - 1][0] - 1 > v:
        out.append((classes[i - 1][0] - 1, low))
        low = 0
    mark = len(out)
    for k in range(max(0, left - room[i + 1]), min(c, left) + 1):
        if c - k + low:
            out.append((v, c - k + low))
        _walk(classes, room, extra, steps, out, i + 1, left - k, ways * comb(c, k), k)
        del out[mark:]


# The class steps of the forbidden and weighted recursion.  The key holds no
# vertex label, so pivots, states, calls and instances with the same free
# multiset share one entry.
_class_steps = lru_cache(maxsize=None)(_class_choices)


# bench/worker.py reads this table's cache_info() for the memo metrics, so it
# stays an lru_cache under this name
@lru_cache(maxsize=None)
def _count_free(classes: tuple[tuple[int, int], ...]) -> int:
    """Count simple graphs on interchangeable vertices grouped by residual degree.

    classes is a tuple of (degree, multiplicity) pairs, degrees > 0, sorted
    descending.  Vertices within a class are exchangeable, which is what the
    memoization keys on.
    """
    if not classes:
        return 1
    # peel one vertex of the highest residual degree
    r = classes[0][0]
    rest = ((r, classes[0][1] - 1),) + classes[1:] if classes[0][1] > 1 else classes[1:]
    return sum(ways * _count_free(nxt) for ways, nxt in _class_choices(rest, r))


def _collapse(residuals) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(Counter(r for r in residuals if r).items(), reverse=True))


# The constrained states of the forbidden and weighted recursion, scoped by
# (Y, weight): a state's count depends only on its constrained residuals, the
# marked edges among them, its free classes and the weight, so every count
# under one Y and weight shares them.  _scopes maps (Y, weight) to the scope
# (Y's neighbour sets, weight, Y's symmetries, states), whose own states dict
# maps (state key, free classes) to the count.
_scopes: dict[tuple[ForbiddenGraph, int], tuple] = {}


def _weighted_count(d: DegreeSequence, Y: ForbiddenGraph, weight: int,
                    limit: int | None) -> int:
    """Sum over the graphs with degrees d of weight^(edges shared with Y).

    A pivot that takes a marked (Y) edge multiplies its branch by weight, so
    weight 0 counts the graphs avoiding Y: marked neighbours are never
    eligible.  A vertex is constrained while it has a live marked neighbour.
    """
    n = d.n
    if not weight and impossible(d, Y):
        return 0
    limit = DEFAULT_LIMIT if limit is None else limit
    if n > limit:
        raise CountLimitError(f"n={n} exceeds exact-count limit {limit}")
    for table, bound in ((_count_free, FREE_MEMO_SIZE), (_class_steps, STEP_MEMO_SIZE)):
        if table.cache_info().currsize > bound:
            table.cache_clear()
    try:
        if not Y.edge_count:
            return _count_free(_collapse(d.degrees))
        # a list, since another thread may add a scope while this one sums
        if sum(1 + len(scope[3]) for scope in list(_scopes.values())) > STATE_MEMO_SIZE:
            _scopes.clear()
        scope = _scopes.get((Y, weight))
        if scope is None:
            xadj = [frozenset(v - 1 for v in Y.neighbors(j)) for j in range(1, n + 1)]
            scope = _scopes[Y, weight] = (xadj, weight, _symmetries(xadj), {})
        cons, moved = _split(scope[0], dict(enumerate(d.degrees)))
        return _rec(scope, cons, _collapse(moved))
    except RecursionError:
        raise CountLimitError(f"n={n} recurses too deep for the exact counter") from None


def _split(xadj: list[frozenset[int]], res: dict[int, int]):
    """(constrained (vertex, residual) pairs, free residuals) of the live vertices."""
    live = {v for v, r in res.items() if r}
    cons = tuple((v, res[v]) for v in res if v in live and xadj[v] & live)
    return cons, tuple(sorted(res[v] for v in live if not xadj[v] & live))


def _symmetries(xadj: list[frozenset[int]]) -> tuple | None:
    """Y's twin classes and isomorphic components, as _orbit reads them.

    Twins are vertices with the same Y-neighbours besides each other; swapping
    two is an automorphism of Y.  One entry per isomorphism type of Y's
    components lists each component of that type as its twin classes, taken
    through an isomorphism from the type's first component, so that permuting
    the components of a type is an automorphism too.  None when Y has no twins
    and no two isomorphic components: the labelled state is then its own key.
    """
    seen: set[int] = set()
    types: list[tuple[list[int], list[list[list[int]]]]] = []
    for s in range(len(xadj)):
        if not xadj[s] or s in seen:
            continue
        comp = [s]
        seen.add(s)
        for v in comp:                  # breadth first, so _extend meets each
            for u in sorted(xadj[v] - seen):    # vertex after a neighbour
                seen.add(u)
                comp.append(u)
        for ref, members in types:
            iso: dict[int, int] = {}
            if len(ref) == len(comp) and _extend(xadj, ref, comp, iso):
                members.append([[iso[v] for v in cls] for cls in members[0]])
                break
        else:
            classes: list[list[int]] = []
            for v in comp:
                for cls in classes:     # twins form an equivalence relation
                    if xadj[cls[0]] - {v} == xadj[v] - {cls[0]}:
                        cls.append(v)
                        break
                else:
                    classes.append([v])
            types.append((comp, [classes]))
    if all(len(members) == 1 and len(members[0]) == len(ref) for ref, members in types):
        return None
    return (dict.fromkeys(seen, 0),
            tuple(tuple(tuple(map(tuple, comp)) for comp in members) for _, members in types))


def _extend(xadj: list[frozenset[int]], ref: list[int], comp: list[int],
            iso: dict[int, int]) -> bool:
    """Extend iso, a map of ref[:len(iso)] into comp that keeps Y's edges and
    non-edges, to an isomorphism of ref onto comp, of the same size; False if
    none exists."""
    i = len(iso)
    if i == len(ref):
        return True
    v = ref[i]
    for u in comp:
        if (len(xadj[u]) == len(xadj[v]) and u not in iso.values()
                and all((iso[w] in xadj[u]) == (w in xadj[v]) for w in ref[:i])):
            iso[v] = u
            if _extend(xadj, ref, comp, iso):
                return True
            del iso[v]
    return False


def _orbit(types: tuple, cons: tuple[tuple[int, int], ...]) -> tuple:
    """The key of the constrained residuals cons under the symmetries types
    of _symmetries, the same for every state in one orbit: each component's
    residuals, sorted within each twin class, then the components of each
    type sorted.  Components of one type have the same class sizes, so the
    flat vectors of a type are comparable and the key reads back one orbit."""
    zeros, groups = types
    res = zeros.copy()
    res.update(cons)
    get = res.__getitem__
    key: list[tuple[int, ...]] = []
    for members in groups:
        vecs = []
        for comp in members:
            vec: list[int] = []
            for cls in comp:
                vec += sorted(map(get, cls))
            vecs.append(tuple(vec))
        vecs.sort()
        key += vecs
    return tuple(key)


def _rec(scope: tuple, cons: tuple[tuple[int, int], ...],
         free: tuple[tuple[int, int], ...]) -> int:
    """_weighted_count of the state (constrained residuals, free classes)
    under the scope (xadj, weight, types, states) of _scopes."""
    if not cons:
        return _count_free(free)
    xadj, weight, types, states = scope
    key = (cons if types is None else _orbit(types, cons), free)
    total = states.get(key)
    if total is not None:
        return total
    res = dict(cons)
    pivot = max(res, key=lambda v: (res[v], -v))
    need = res.pop(pivot)
    marked = xadj[pivot]
    eligible = [v for v in res if weight or v not in marked]
    nfree = sum(c for _, c in free)
    total = 0
    for k in range(max(0, need - nfree), min(need, len(eligible)) + 1):
        for chosen in combinations(eligible, k):
            for u in chosen:
                res[u] -= 1
            cons2, moved = _split(xadj, res)
            branch = 0
            for ways, free2 in _class_steps(free, need - k, moved):
                branch += ways * _rec(scope, cons2, free2)
            total += branch * weight ** len(marked.intersection(chosen))
            for u in chosen:
                res[u] += 1
    states[key] = total
    return total


def exact_count(d: DegreeSequence, X: ForbiddenGraph | None = None,
                limit: int | None = None) -> int:
    """Exact number of simple graphs with degrees d and no edge of X.

    An instance graphcore.impossible marks (some d_j > n-1-x_j) counts 0 at
    any n; otherwise n > limit raises CountLimitError, with the one default
    limit DEFAULT_LIMIT = 12 whatever X is.
    """
    return _weighted_count(d, forbidden_for(d, X), 0, limit)


def enumerate_count(d: DegreeSequence, X: ForbiddenGraph | None = None) -> int:
    """Brute-force count over all 2^C(n,2) graphs; independent checker, n <= 6."""
    import numpy as np    # here, so that exact counting imports no numpy

    X = forbidden_for(d, X)
    n = d.n
    if n > ENUMERATION_LIMIT:
        raise CountLimitError(f"n={n} exceeds enumeration limit {ENUMERATION_LIMIT}")
    pairs = list(combinations(range(n), 2))
    m = len(pairs)
    masks = np.arange(1 << m, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(m)) & 1).astype(np.int8)
    inc = np.zeros((m, n), dtype=np.int8)
    for e, (j, k) in enumerate(pairs):
        inc[e, j] = 1
        inc[e, k] = 1
    degs = bits.astype(np.int64) @ inc.astype(np.int64)
    ok = (degs == np.asarray(d.degrees, dtype=np.int64)).all(axis=1)
    if X.edge_count:
        xmask = 0
        for j, k in X.edges:
            xmask |= 1 << pairs.index((j - 1, k - 1))
        ok &= (masks & xmask) == 0
    return int(ok.sum())


def complement_degrees(d: DegreeSequence, X: ForbiddenGraph) -> tuple[int, ...]:
    """Degrees d' with d'_j = n-1-d_j-x_j; exact_count(d', X) = exact_count(d, X)."""
    X = forbidden_for(d, X)
    return tuple(d.n - 1 - dj - xj for dj, xj in zip(d.degrees, X.row_sums))


def _graph_total(d: DegreeSequence, limit: int | None) -> int:
    """G(d), every exact probability's denominator; raises when it is 0."""
    gd = exact_count(d, None, limit=limit)
    if gd == 0:
        raise UndefinedProbabilityError("G(d) = 0: no graph has these degrees")
    return gd


def exact_probability(d: DegreeSequence, X: ForbiddenGraph, mode: str,
                      m: int | None = None, limit: int | None = None) -> Fraction:
    """Exact probability, as a Fraction, that a uniform graph with degrees d
    has exactly the edges S inside Y, (Y, S) = graphcore.event_edges(X, mode,
    m): exact_count(d - x(S), Y) / G(d).  The event is decoded before G(d) is
    counted, so a bad mode or m fails fast; G(d) and the event count read one
    limit, and an event graphcore.impossible marks is 0 with no count of its own."""
    Y, S = event_edges(forbidden_for(d, X), mode, m)
    gd = _graph_total(d, limit)
    if impossible(d, Y, S):
        return Fraction(0)
    s = ForbiddenGraph(d.n, S).row_sums
    shifted = DegreeSequence(tuple(dj - sj for dj, sj in zip(d.degrees, s)))
    return Fraction(exact_count(shifted, Y, limit=limit), gd)


def exact_overlap_distribution(d: DegreeSequence, Y: ForbiddenGraph,
                               limit: int | None = None) -> tuple[Fraction, ...]:
    """Exact distribution of the number of edges shared with Y, indexed 0..|Y|.

    One weighted pass with t = 2^B, B = G(d).bit_length(), under the limit of
    G(d) gives sum_k N_k t^k, N_k the graphs sharing exactly k
    edges with Y.  Each N_k <= G(d) < t, so the N_k are its B-bit fields.
    """
    Y = forbidden_for(d, Y)
    gd = _graph_total(d, limit)
    B = gd.bit_length()
    packed = _weighted_count(d, Y, 1 << B, limit)
    fields = [(packed >> (k * B)) & ((1 << B) - 1) for k in range(Y.edge_count + 1)]
    if sum(fields) != gd or packed >> (B * len(fields)):
        raise RuntimeError("weighted overlap pass does not add up to G(d)")
    return tuple(Fraction(c, gd) for c in fields)
