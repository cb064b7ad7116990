"""Unrestricted rigged configurations.

A configuration is a sequence of partitions nu^(1), ..., nu^(n-1) whose
sizes are forced by the tensor factors and the weight.  Each part
carries an integer label (rigging); a label may go as low as a bound
read off a witness tableau and as high as the vacancy number of its
part length.  One witness tableau must serve every string of the
configuration simultaneously.

The module computes the generating polynomial of all rigged
configurations graded by cocharge in two ways, direct enumeration and
the alternating bound-tableau sum, which share the configuration
builder `enumerate_configurations`.  The enumeration counts the
riggings of each configuration and builds no RiggedConfiguration: the
cocharge of the bare configuration is shared by all of its riggings,
and each rigging adds its sum of labels.

The listing and both polynomials are each a function of the builder's
output (`_rcs_from`, `_rc_polynomial_from`, `_fermionic_polynomial_from`).
`enumerate_rcs`, `rc_polynomial` and `fermionic_polynomial` run each
over a fresh builder pass; `configuration_list` builds one weight's
configurations once, so that a caller needing several of them, such as
`kostka check` and `kostka poly`, reads one list.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import accumulate, combinations, combinations_with_replacement, product as iproduct
from math import comb, prod

from .crystal import CrystalSpec, check_weight_entries, json_index, json_int, json_ints
from .errors import BudgetError
from .qpoly import QPolynomial, qbinom

DEFAULT_BOUND_CAP = 10 ** 6


def forced_sizes(spec: CrystalSpec, weight) -> list[int]:
    """Required size of each component partition, indices a = 1..n-1.

    Entry a-1 holds c_a of _column_heights minus the boxes the factors
    place above level a.
    """
    heights = _column_heights(spec.check_weight(weight))
    return [heights[a] - sum([s * (r - a) for r, s in spec.factors if r > a])
            for a in range(1, spec.n)]


def component_vacancy(factors, padded, a: int, i: int) -> int:
    """Vacancy number of component a at length i, read off factors, the
    (height, width) of every tensor factor in any order, and padded, the
    part lengths of components 0..n, where components 0 and n are empty.
    Every vacancy number in the package comes from it; the configuration
    builder calls it with both neighbours of a empty and adds their
    overlaps itself as it chooses them."""
    # The Cartan pairing of simple roots: 2 with itself, -1 adjacent.
    total = 0
    for r, s in factors:
        if r == a:
            total += s if s < i else i
    for l in (*padded[a - 1], *padded[a + 1]):
        total += l if l < i else i
    for l in padded[a]:
        total -= 2 * l if l < i else 2 * i
    return total


@cache
def spec_vacancy(spec: CrystalSpec, partitions, a: int, i: int) -> int:
    """component_vacancy memoized for RiggedConfiguration.vacancy, the
    public single-value lookup, which checks a and i.  No computing path
    reads it: is_admissible, the configuration builder and the bijection
    steps compute the vacancy numbers of the configuration in front of
    them with component_vacancy."""
    return component_vacancy(spec.factors, ((), *partitions, ()), a, i)


def _overlap(lam, kappa) -> int:
    """Q(lam, kappa): the sum of min(x, y) over parts x of lam, y of kappa."""
    return sum(min(x, y) for x in lam for y in kappa)


def _config_cocharge(partitions) -> int:
    """Cocharge of the unrigged configuration: the sum over a of
    Q(nu^a, nu^a) less that of Q(nu^a, nu^(a+1))."""
    return (sum(_overlap(p, p) for p in partitions)
            - sum(_overlap(p, q) for p, q in zip(partitions, partitions[1:])))


# ---------------------------------------------------------------------------
# witness tableaux for the rigging lower bounds
#
# The witness set is the free product of its columns: column k ranges
# over every c_k-subset of 1..c_{k-1}, independently of the others, and
# bound(a, l) reads columns a and a+1 only.  _column_heights lists c_0..c_n,
# with c_0 = c_1 and the empty column c_n = 0, so every reader takes the
# pair of heights it needs from that one list.  No computation builds the
# set.  The configuration builder needs the distinct riggable profiles,
# so it walks the partial rows one column at a time (_walk_column).
# is_admissible needs only whether one witness fits, so it carries one
# column, the greedy largest (_chain_column).  bound_tableaux lists the
# set for the tests and for the benchmark's witness-tableau probe.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LowerBoundTableau:
    """Columns of prescribed heights with strictly decreasing entries.

    Column k (1-indexed) has height c_k = weight[k] + ... + weight[n-1]
    (0-indexed weight) and entries from {1..c_{k-1}}, with c_0 = c_1.
    Rows are then weakly decreasing automatically.
    """

    columns: tuple[tuple[int, ...], ...]
    weight: tuple[int, ...]

    def __post_init__(self):
        cols = tuple(tuple(col) for col in self.columns)
        weight = check_weight_entries(self.weight)
        object.__setattr__(self, 'columns', cols)
        object.__setattr__(self, 'weight', weight)
        n = len(weight)
        if len(cols) != n - 1:
            raise ValueError(f'expected {n - 1} columns')
        heights = _column_heights(weight)
        for k, col in enumerate(cols, start=1):
            if len(col) != heights[k]:
                raise ValueError(f'column {k} must have height {heights[k]}')
            bound = heights[k - 1]
            for x in col:
                if not 1 <= json_int(x) <= bound:
                    raise ValueError(f'column {k} entry {x} outside 1..{bound}')
            if any(x <= y for x, y in zip(col, col[1:])):
                raise ValueError('columns must strictly decrease')

    def bound(self, a: int, i: int) -> int:
        """Lower bound for riggings of length-i strings in component a."""
        n = len(self.weight)
        json_index(a, n - 1, 'component')
        if json_int(i) < 0:
            raise ValueError('length must be nonnegative')
        value = -sum(1 for x in self.columns[a - 1] if i >= x)
        if a <= n - 2:
            value += sum(1 for x in self.columns[a] if i >= x)
        return value

    def rows(self) -> tuple[tuple[int, ...], ...]:
        height = len(self.columns[0]) if self.columns else 0
        return tuple(tuple(col[j] for col in self.columns if j < len(col))
                     for j in range(height))


def _column_heights(weight) -> list[int]:
    """Heights c_0, c_1, ..., c_n of the witness-tableau columns of a
    nonempty weight of length n: c_k = weight[k] + ... + weight[n-1]
    (0-indexed weight), so column n is empty, and c_0 = c_1."""
    # One running sum from the end, starting at the empty column n.
    heights = [*accumulate(reversed(tuple(weight)[1:]), initial=0)][::-1]
    return [heights[0], *heights]


def count_bound_tableaux(weight) -> int:
    heights = _column_heights(check_weight_entries(weight))
    return prod(comb(top, height) for top, height in zip(heights, heights[1:]))


def bound_tableaux(weight, cap: int = DEFAULT_BOUND_CAP) -> tuple[LowerBoundTableau, ...]:
    """The full witness set for a weight, in a fixed order: the columns
    in decreasing lexicographic order, the first column varying slowest.

    The set is a product of binomials in size and explodes quickly, so
    a weight with more than cap tableaux is refused with a BudgetError,
    and one with an entry that is not a nonnegative int with a
    ValueError.
    """
    weight = tuple(weight)
    count = count_bound_tableaux(weight)
    if count > cap:
        raise BudgetError(
            f'{count} bound tableaux exceed the cap of {cap}; '
            f'raise the cap explicitly to proceed')
    # Columns 1..n-1, since column n is empty.  Subsets of a decreasing
    # range come out decreasing, in decreasing lexicographic order.
    heights = _column_heights(weight)
    per_column = [combinations(range(top, 0, -1), height)
                  for top, height in zip(heights, heights[1:-1])]
    return tuple(LowerBoundTableau(cols, weight) for cols in iproduct(*per_column))


@cache
def _column_counts(top: int, height: int, finishing: tuple[int, ...],
                   starting: tuple[int, ...]) -> tuple:
    """How one witness column, a height-subset col of 1..top, enters
    the bounds: pairs of its counts #{x in col : x <= l} at the
    finishing lengths and the distinct negated counts at the starting
    lengths that go with them, over every such col."""
    out: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
    for col in combinations(range(1, top + 1), height):
        added = tuple(bisect_right(col, l) for l in finishing)
        out.setdefault(added, set()).add(tuple(-bisect_right(col, l) for l in starting))
    return tuple((added, tuple(starts)) for added, starts in out.items())


def _walk_column(partial, top: int, height: int, finishing, starting) -> set:
    """One step of the walk over the witness tableaux of a weight: the
    distinct partial rows after column k, a height-subset of 1..top, where
    top and height are c_{k-1} and c_k of _column_heights.  The
    configuration builder takes it column by column to list the riggable
    profiles; is_admissible runs _chain_column, on the same pair, instead.

    A partial row is a pair (done, pending): the bounds of the finished
    entries, and the bounds so far of the entries of component k-1.
    Column k adds to the entries of components k-1 and k only, so it
    makes those of component k-1 final and starts those of component k.
    finishing lists the pairs (l, limit) of the entries of component k-1
    and starting the lengths of those of component k; a row is dropped as
    soon as a final bound exceeds its limit.  From {((), ())}, columns 1..n leave the rows
    (done, ()) of the witness tableaux that lie at or below the limits.
    """
    counts = _column_counts(top, height, tuple(l for l, _ in finishing), tuple(starting))
    grown = set()
    for done, pending in partial:
        for added, starts in counts:
            final = []
            for p, c, (_l, limit) in zip(pending, added, finishing):
                if p + c > limit:
                    break
                final.append(p + c)
            else:
                row = done + tuple(final)
                grown.update((row, start) for start in starts)
    return grown


def _chain_column(cnt, top: int, height: int, lows) -> list[int] | None:
    """The pointwise-largest counting function f(l) = #{x in col : x <= l},
    l = 0..top, of a height-subset col of 1..top with f(l) <= low +
    cnt(l) at each pair (l, low) of lows, or None when no such col exists.

    cnt is the counting function of the column before, indexed from 0 and
    constant past its end, as f is past top.  Each length is capped, a
    backward running min makes the caps nondecreasing, and each forward
    step is limited to 1; the result is a counting function exactly when
    it starts at 0 and ends at height.
    """
    f = [height] * (top + 1)
    f[0] = 0
    last = len(cnt) - 1
    for l, low in lows.items():
        cap = low + cnt[l if l < last else last]
        i = l if l < top else top
        if cap < f[i]:
            f[i] = cap
    for i in range(top, 0, -1):
        if f[i - 1] > f[i]:
            f[i - 1] = f[i]
    if f[0] < 0:
        return None
    for i in range(1, top + 1):
        if f[i] > f[i - 1] + 1:
            f[i] = f[i - 1] + 1
    return f if f[top] == height else None


# ---------------------------------------------------------------------------
# rigged configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RiggedConfiguration:
    """Strings (length, rigging) per component, plus the ambient data.

    Strings are kept sorted by decreasing length, then decreasing
    rigging, so equality is multiset equality.  The constructor refuses
    lengths and riggings that are not ints, and component sizes other
    than forced_sizes, so admissibility is a condition on the riggings
    alone.
    """

    spec: CrystalSpec
    weight: tuple[int, ...]
    strings: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        object.__setattr__(self, 'weight', self.spec.check_weight(self.weight))
        n = self.spec.n
        if len(self.strings) != n - 1:
            raise ValueError(f'expected {n - 1} components')
        canon = []
        for comp in self.strings:
            comp = tuple(sorted([(json_int(l), json_int(x)) for l, x in comp], reverse=True))
            if comp and comp[-1][0] < 1:
                raise ValueError('string lengths must be positive')
            canon.append(comp)
        sizes = [sum(l for l, _ in comp) for comp in canon]
        if sizes != _config_sizes(self.spec, self.weight):
            raise ValueError('component sizes are not the ones the weight forces')
        object.__setattr__(self, 'strings', tuple(canon))

    @classmethod
    def _trusted(cls, spec: CrystalSpec, weight: tuple, strings) -> 'RiggedConfiguration':
        """A configuration from a checked weight tuple and one iterable per
        component of (length, rigging) tuples, lengths positive and in any
        order, with the sizes the weight forces: enumerate_rcs builds them
        so, and each letter step, split, merge and operator moves boxes
        with the factors or the weight.  Each component is sorted into
        canonical order; no other check is re-run."""
        rc = object.__new__(cls)
        object.__setattr__(rc, 'spec', spec)
        object.__setattr__(rc, 'weight', weight)
        object.__setattr__(rc, 'strings',
                           tuple(tuple(sorted(comp, reverse=True)) for comp in strings))
        return rc

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def partitions(self) -> tuple[tuple[int, ...], ...]:
        return tuple(tuple(l for l, _ in comp) for comp in self.strings)

    def vacancy(self, a: int, i: int) -> int:
        """Vacancy number of component a at part length i, which may
        exceed every part; the value may be negative."""
        json_index(a, self.n - 1, 'component')
        if json_int(i) < 1:
            raise ValueError('part length must be positive')
        return spec_vacancy(self.spec, self.partitions, a, i)

    def cocharge(self) -> int:
        return (_config_cocharge(self.partitions)
                + sum(x for comp in self.strings for _, x in comp))

    def is_admissible(self) -> bool:
        """Whether no rigging exceeds its vacancy number and one witness
        tableau bounds every rigging from below.

        With cnt_k(l) the number of entries <= l in column k, bound(a, l)
        is cnt_{a+1}(l) - cnt_a(l), so the strings of component a cap
        cnt_{a+1} by their lowest riggings plus cnt_a.  A larger cnt_a only
        loosens those caps, so a witness exists exactly when the chain of
        largest columns (_chain_column) does, from column 1, forced because
        c_0 = c_1, to the empty column n.
        """
        factors = self.spec.factors
        padded = ((), *self.partitions, ())
        heights = _column_heights(self.weight)
        cnt = range(heights[0] + 1)
        for a, comp in enumerate(self.strings, start=1):
            # The strings of one length come by decreasing rigging.
            lowest: dict[int, int] = {}
            for l, x in comp:
                if l not in lowest and x > component_vacancy(factors, padded, a, l):
                    return False
                lowest[l] = x
            cnt = _chain_column(cnt, heights[a], heights[a + 1], lowest)
            if cnt is None:
                return False
        return True

    def to_json(self) -> dict:
        return {
            'n': self.n,
            'weight': list(self.weight),
            'factors': [list(f) for f in self.spec.factors],
            'nu': [[[l, x] for l, x in comp] for comp in self.strings],
        }

    @classmethod
    def from_json(cls, data) -> 'RiggedConfiguration':
        return cls(CrystalSpec.from_json(data), json_ints(data['weight']),
                   json_ints(data['nu']))

    def __str__(self):
        if not any(self.strings):
            return '(empty)'
        comps = []
        for comp in self.strings:
            comps.append(','.join(f'{l}:{x}' for l, x in comp) if comp else '-')
        return ' | '.join(comps)


# ---------------------------------------------------------------------------
# enumeration and polynomials
# ---------------------------------------------------------------------------

def _partitions_of(total: int):
    """All partitions of total, in decreasing lexicographic order.

    Each comes as (parts, groups): the weakly decreasing parts, and the
    pairs (length, multiplicity) of its distinct parts, longest first.
    """
    def rec(remaining, largest):
        if remaining == 0:
            yield (), ()
            return
        for l in range(min(remaining, largest), 0, -1):
            for m in range(remaining // l, 0, -1):
                for parts, groups in rec(remaining - m * l, l - 1):
                    yield (l,) * m + parts, ((l, m),) + groups

    yield from rec(total, total)


def _config_sizes(spec: CrystalSpec, weight: tuple[int, ...]):
    """forced_sizes of the weight, or None when no configuration has them."""
    if sum(weight) != spec.total_boxes():
        return None
    sizes = forced_sizes(spec, weight)
    return None if any(sz < 0 for sz in sizes) else sizes


def _witness_floor(top: int, below: int, l: int) -> int:
    """min(t.bound(a, l)) over the witness tableaux t of a weight, read
    off the heights top = c_a and below = c_{a+1} of columns a and a+1.

    The columns are independent: column a holds at most min(l, c_a)
    entries <= l, and column a+1, a c_{a+1}-subset of 1..c_a, at least
    c_{a+1} - max(c_a - l, 0) of them.
    """
    return max(0, below - max(top - l, 0)) - min(l, top)


def enumerate_configurations(spec: CrystalSpec, weight):
    """The configurations with a riggable witness profile, each with its
    string support, vacancy numbers and riggable profiles.

    Yields (partitions, support, vacancies, profiles): support lists the
    triples (a, l, multiplicity) of each component in turn, lengths
    decreasing, and vacancies the vacancy number of each triple.  A
    profile lists bound(a, l) of one witness tableau for every support
    entry, in support order; profiles is the nonempty set of distinct
    ones with no bound above the vacancy number of its entry.
    Configurations come in the order of the product of the component
    partitions, each in decreasing lexicographic order.

    Components are chosen nu^(1), nu^(2), ... depth first.  The vacancy
    numbers of component a depend only on nu^(a-1), nu^(a) and
    nu^(a+1), so choosing nu^(a+1) makes them final, and each prefix
    advances its partial witness rows by column a+1 (_walk_column) right
    then.  A prefix whose rows are all gone extends to no configuration
    with a riggable profile, and none of its extensions is built.  A
    prefix is also dropped early when even the largest overlap nu^(a+1)
    can add leaves a vacancy number of nu^(a) below its floor, the
    least bound(a, l) over all witness tableaux (_witness_floor).
    """
    weight = spec.check_weight(weight)
    sizes = _config_sizes(spec, weight)
    if sizes is None:
        return
    heights = _column_heights(weight)
    # Per component, each partition with its support entries, their
    # vacancy numbers short of the overlaps with both neighbours, and
    # their floors.
    options = []
    for a, size in enumerate(sizes, start=1):
        level = []
        for parts, groups in _partitions_of(size):
            padded = ((),) * a + (parts, ())
            level.append((parts, [((a, l, m), component_vacancy(spec.factors, padded, a, l),
                                   _witness_floor(heights[a], heights[a + 1], l))
                                  for l, m in groups]))
        options.append(level)

    def extend(prefix, finished, pending, partial):
        """Extensions of the prefix nu^(1..a-1), given the entries and
        vacancy numbers of nu^(1..a-2), the entries of nu^(a-1) with
        their vacancy numbers short of the overlap with nu^(a), and the
        partial witness rows after column a-1."""
        a = len(prefix) + 1
        top, height = heights[a - 1], heights[a]
        if a == spec.n:
            partial = _walk_column(partial, top, height, [(key[1], p) for key, p in pending], ())
            if partial:
                entries = finished + pending
                yield (prefix, [key for key, _p in entries], [p for _key, p in entries],
                       {row for row, _pending in partial})
            return
        # The overlap of nu^(a+1) with any length is at most its size.
        room = sizes[a] if a < len(sizes) else 0
        left = prefix[-1] if prefix else ()
        for parts, entries in options[a - 1]:
            started = []
            for key, own, floor in entries:
                p = own + sum([min(key[1], x) for x in left])
                if p + room < floor:
                    break
                started.append((key, p))
            else:
                done = [(key, p + sum([min(key[1], x) for x in parts])) for key, p in pending]
                grown = _walk_column(partial, top, height, [(key[1], p) for key, p in done],
                                     [key[1] for key, _p in started])
                if grown:
                    yield from extend(prefix + (parts,), finished + done, started, grown)

    yield from extend((), [], [], {((), ())})


def _riggings(support, vacancies, profiles):
    """The distinct rigging assignments of one configuration of
    enumerate_configurations: one tuple per support entry (a, l, m) of
    its m riggings in decreasing order, inside the box [bound, vacancy]
    of some riggable profile.

    Each multiset of riggings comes out once, so the set merges
    assignments that several profiles share.  profiles is nonempty and
    every profile is riggable, so the set is never empty.
    """
    assignments = set()
    for profile in profiles:
        assignments.update(iproduct(*[
            combinations_with_replacement(range(p, low - 1, -1), m)
            for (_a, _l, m), low, p in zip(support, profile, vacancies)]))
    return assignments


def configuration_list(spec: CrystalSpec, weight):
    """The configurations of enumerate_configurations(spec, weight) as a
    thunk: its first call builds them into a list, and every call returns
    that list.  Nothing is built until it is called, and nothing outlives
    the thunk."""
    return cache(lambda: list(enumerate_configurations(spec, weight)))


def enumerate_rcs(spec: CrystalSpec, weight) -> list[RiggedConfiguration]:
    """The complete set of rigged configurations, in a fixed order.

    For each configuration, rigging assignments are enumerated inside
    the box [bound, vacancy] of each of its distinct riggable witness
    profiles (enumerate_configurations), and deduplicated across
    profiles.  No witness tableau is built, and no budget applies.
    Configurations without a riggable profile, and every extension of a
    prefix that has none, are never built: they admit no rigging.
    """
    weight = spec.check_weight(weight)
    return _rcs_from(spec, weight, enumerate_configurations(spec, weight))


def _rcs_from(spec: CrystalSpec, weight: tuple, configs) -> list[RiggedConfiguration]:
    """enumerate_rcs of a checked weight tuple, read off configs, the
    output of enumerate_configurations(spec, weight)."""
    out: list[RiggedConfiguration] = []
    for _parts, support, vacancies, profiles in configs:
        for assignment in _riggings(support, vacancies, profiles):
            comps: list[list[tuple[int, int]]] = [[] for _ in range(spec.n - 1)]
            for (a, l, _m), riggings in zip(support, assignment):
                comps[a - 1].extend((l, x) for x in riggings)
            out.append(RiggedConfiguration._trusted(spec, weight, comps))
    out.sort(key=lambda rc: rc.strings)
    return out


def rc_polynomial(spec: CrystalSpec, weight) -> QPolynomial:
    """Sum of q^cocharge over all rigged configurations.

    Counts the rigging assignments of each configuration, those that
    enumerate_rcs lists, without building any configuration: every
    rigging shares the cocharge of its bare configuration and adds the
    sum of its riggings.
    """
    return _rc_polynomial_from(enumerate_configurations(spec, weight))


def _rc_polynomial_from(configs) -> QPolynomial:
    """rc_polynomial read off configs, the output of enumerate_configurations."""
    counts = Counter()
    for parts, support, vacancies, profiles in configs:
        base = _config_cocharge(parts)
        for assignment in _riggings(support, vacancies, profiles):
            counts[base + sum(map(sum, assignment))] += 1
    return QPolynomial(counts)


def fermionic_polynomial(spec: CrystalSpec, weight) -> QPolynomial:
    """The alternating bound-tableau sum for the same polynomial.

    For each configuration the witness tableaux enter only through
    their bound profile on the strings that actually occur.  The sum
    over nonempty witness subsets with sign (-1)^(size+1) collapses to
    the identical sum over nonempty subsets of *distinct* profiles,
    which is evaluated by dynamic programming on pointwise maxima:
    processing profiles one at a time, a map from max-vector to signed
    count absorbs each new profile v via D[max(u,v)] -= D[u], D[v] += 1.

    Only riggable profiles (no bound above its vacancy number) enter.
    This is exact: if a subset holds a profile with some bound low > p,
    its pointwise maximum keeps a bound above p on that entry, so its
    term carries the factor qbinom(m, p - low) = 0.  A configuration
    without a riggable profile contributes nothing, and
    enumerate_configurations never builds one.  No witness tableau is
    built, and no budget applies.
    """
    return _fermionic_polynomial_from(enumerate_configurations(spec, weight))


def _fermionic_polynomial_from(configs) -> QPolynomial:
    """fermionic_polynomial read off configs, the output of
    enumerate_configurations."""
    result = Counter()
    for parts, support, vacancies, profiles in configs:
        signed: dict[tuple[int, ...], int] = {}
        for v in profiles:
            updates = {v: signed.get(v, 0) + 1}
            for u, c in signed.items():
                w = tuple(max(x, y) for x, y in zip(u, v))
                updates[w] = updates.get(w, signed.get(w, 0)) - c
            signed.update(updates)
            signed = {u: c for u, c in signed.items() if c != 0}
        base = _config_cocharge(parts)
        for bounds, count in signed.items():
            term = QPolynomial.monomial(
                base + sum(m * low for (_a, _l, m), low in zip(support, bounds)),
                count)
            for (a, l, m), low, p in zip(support, bounds, vacancies):
                term = term * qbinom(m, p - low)
            result.update(term.coeffs)
    return QPolynomial(result)
