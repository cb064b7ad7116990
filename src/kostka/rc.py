"""Unrestricted rigged configurations.

A configuration is a sequence of partitions nu^(1), ..., nu^(n-1) whose
sizes are forced by the tensor factors and the weight; one rule,
_config_sizes, gives them (or None when no configuration has them) to
both the constructor and the builder.  Each part
carries an integer label (rigging); a label may go as low as a bound
read off a witness tableau and as high as the vacancy number of its
part length.  One witness tableau must serve every string of the
configuration simultaneously.

The module computes the generating polynomial of all rigged
configurations graded by cocharge in two ways, direct enumeration and
the alternating bound-tableau sum, which share the configuration builder
`enumerate_configurations`, one crystal.depth_first step per component
over the partitions of its size.  The partitions of each size are tabled
once per process, each with its overlap function (_partitions_of); they
are keyed by the size alone, so no value depends on the table.  The
builder takes only the factor term of each vacancy number from
component_vacancy, and the floors, once per length on every call
(_component_options), and adds every overlap from the table.
The builder yields each configuration with its distinct minimal
riggable witness profiles, in walk order, which is exact for both
methods: the riggings are the union of one box per riggable profile, and
the box of a profile above another lies inside that one's box.  The
enumeration counts the riggings of each configuration and builds no
RiggedConfiguration: the cocharge of the bare configuration is shared by
all of its riggings, and each rigging adds its sum of labels.  The
alternating sum is inclusion-exclusion over the same boxes, a signed
max-DP on the profiles packed into integers (_signed_terms), and
multiplies the q-binomials of each distinct (pairs, shift) key once, in
place on a coefficient list (fermionic_polynomial).

The listing and both polynomials are each a function of the builder's
output (`_rcs_from`, `_rc_polynomial_from`, `_fermionic_polynomial_from`);
only `enumerate_rcs` orders the listing, by strings.
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
from operator import le, lshift

from .crystal import (CrystalSpec, check_weight, check_weight_entries, depth_first, json_field,
                      json_index, json_int, json_ints, json_list)
from .errors import BadInputError, BudgetError, shown
from .qpoly import QPolynomial, _times_qbinom

DEFAULT_BOUND_CAP = 10 ** 6


def component_vacancy(factors, padded, a: int, i: int) -> int:
    """Vacancy number of component a at length i, read off factors, the
    (height, width) of every tensor factor in any order, and padded, the
    part lengths of components 0..n, where components 0 and n are empty.
    Every vacancy number in the package comes from it; the configuration
    builder takes only the factor term, calling it with every component
    empty, and adds every overlap, component a's own included, from the
    overlap tables of _partitions_of (_component_options)."""
    # The Cartan pairing of simple roots: 2 with itself, -1 adjacent.
    total = 0
    for r, s in factors:
        if r == a:
            total += s if s < i else i
    for l in padded[a - 1]:
        total += l if l < i else i
    for l in padded[a + 1]:
        total += l if l < i else i
    for l in padded[a]:
        total -= 2 * l if l < i else 2 * i
    return total


@cache
def spec_vacancy(spec: CrystalSpec, partitions, a: int, i: int) -> int:
    """component_vacancy memoized for RiggedConfiguration.vacancy, the
    public single-value lookup, which checks a and i.  No computing path
    reads it: _admissible, the configuration builder and the bijection
    steps compute the vacancy numbers of the configuration in front of
    them with component_vacancy."""
    return component_vacancy(spec.factors, ((), *partitions, ()), a, i)


def _config_cocharge(partitions) -> int:
    """Cocharge of the unrigged configuration: the sum over a of
    Q(nu^a, nu^a) less that of Q(nu^a, nu^(a+1)), where Q(lam, kappa) is
    the sum of min(x, y) over parts x of lam, y of kappa.

    One pass over every part, longest first: each pair of parts
    contributes the length of the later one, so a part x of component a
    adds x once for itself, twice per part of nu^(a) before it, and
    takes x once per part of nu^(a-1) or nu^(a+1) before it.
    """
    seen = [0] * (len(partitions) + 2)
    total = 0
    for x, a in sorted([(x, a) for a, parts in enumerate(partitions, start=1)
                        for x in parts], reverse=True):
        total += x * (2 * seen[a] + 1 - seen[a - 1] - seen[a + 1])
        seen[a] += 1
    return total


# ---------------------------------------------------------------------------
# witness tableaux for the rigging lower bounds
#
# The witness set is the free product of its columns: column k ranges
# over every c_k-subset of 1..c_{k-1}, independently of the others, and
# bound(a, l) reads columns a and a+1 only.  _column_heights lists c_0..c_n,
# with c_0 = c_1 and the empty column c_n = 0, so every reader takes the
# pair of heights it needs from that one list.  No computation builds the
# set.  The configuration builder needs the minimal riggable profiles,
# so it walks the partial rows one column at a time (_walk_column), each
# column over its undominated options only (_column_counts); the rows it
# is left with are those profiles, each once, in a plain list.
# Admissibility needs only whether one witness fits, so its one rule,
# _admissible, carries one column, the greedy largest (_chain_column),
# reading each component's strings in any order: is_admissible passes a
# configuration's canonical strings and check_spec a bijection state's
# unsorted lists.  bound_tableaux lists the set for the tests and for
# the benchmark's witness-tableau probe.
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
        cols = tuple(tuple(json_list(col, 'column')) for col in json_list(self.columns, 'columns'))
        weight = check_weight_entries(self.weight)
        object.__setattr__(self, 'columns', cols)
        object.__setattr__(self, 'weight', weight)
        n = len(weight)
        if len(cols) != n - 1:
            raise BadInputError(f'expected {n - 1} columns')
        heights = _column_heights(weight)
        for k, col in enumerate(cols, start=1):
            if len(col) != heights[k]:
                raise BadInputError(f'column {k} must have height {shown(heights[k])}')
            bound = heights[k - 1]
            for x in col:
                if not 1 <= json_int(x) <= bound:
                    raise BadInputError(f'column {k} entry {shown(x)} outside 1..{bound}')
            if any(x <= y for x, y in zip(col, col[1:])):
                raise BadInputError('columns must strictly decrease')

    @classmethod
    def _trusted(cls, columns: tuple, weight: tuple) -> 'LowerBoundTableau':
        """A witness tableau from a tuple of column tuples and a checked
        weight tuple that the caller built to fit, without re-running the
        checks."""
        lb = object.__new__(cls)
        object.__setattr__(lb, 'columns', columns)
        object.__setattr__(lb, 'weight', weight)
        return lb

    def bound(self, a: int, i: int) -> int:
        """Lower bound for riggings of length-i strings in component a."""
        n = len(self.weight)
        json_index(a, n - 1, 'component')
        if json_int(i) < 0:
            raise BadInputError('length must be nonnegative')
        value = -sum(1 for x in self.columns[a - 1] if i >= x)
        if a <= n - 2:
            value += sum(1 for x in self.columns[a] if i >= x)
        return value


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


def bound_tableaux(weight) -> tuple[LowerBoundTableau, ...]:
    """The full witness set for a weight, in a fixed order: the columns
    in decreasing lexicographic order, the first column varying slowest.

    The set is a product of binomials in size and explodes quickly, so
    a weight with more than DEFAULT_BOUND_CAP tableaux is refused with a
    BudgetError, and one with an entry that is not a nonnegative int
    with a BadInputError.
    """
    weight = check_weight_entries(weight)
    count = count_bound_tableaux(weight)
    if count > DEFAULT_BOUND_CAP:
        raise BudgetError(
            f'{count} bound tableaux exceed the cap of {DEFAULT_BOUND_CAP}')
    # Columns 1..n-1, since column n is empty.  Subsets of a decreasing
    # range come out decreasing, in decreasing lexicographic order, so
    # every tableau is valid as built.
    heights = _column_heights(weight)
    per_column = [combinations(range(top, 0, -1), height)
                  for top, height in zip(heights, heights[1:-1])]
    return tuple(LowerBoundTableau._trusted(cols, weight) for cols in iproduct(*per_column))


def _minimal_profiles(profiles) -> list[tuple[int, ...]]:
    """The profiles with no other profile pointwise below them, by
    increasing sum.  The profiles are distinct, so one below another has a
    smaller sum and comes first, and one above a dropped profile is above
    a kept one too.  The builder reads it on the options of each witness
    column (_column_counts); the rows those options give are minimal
    already (_walk_column)."""
    minimal = []
    for v in sorted(profiles, key=sum):
        if not any(all(map(le, u, v)) for u in minimal):
            minimal.append(v)
    return minimal


@cache
def _column_counts(top: int, height: int, finishing: tuple[int, ...],
                   starting: tuple[int, ...]) -> tuple:
    """How one witness column, a height-subset col of 1..top, enters
    the bounds: pairs (added, start) of its counts #{x in col : x <= l} at
    the finishing lengths and its negated counts at the starting lengths.

    Only the pairs that no other pair lies pointwise below are kept.  The
    columns are independent, so a pair at or above another raises every
    bound it touches at least as much, for every choice of the other
    columns: each profile it gives lies at or above the one the lower pair
    gives, which is riggable whenever it is.  The kept pairs thus give
    every minimal riggable profile, and no other (_walk_column).  Each
    added comes once: the pointwise maximum of two counting functions is
    one, so the columns with the same added have a largest counting
    function, and its start lies below theirs.
    """
    k = len(finishing)
    return tuple((pair[:k], pair[k:]) for pair in _minimal_profiles({
        tuple([bisect_right(col, l) for l in finishing]
              + [-bisect_right(col, l) for l in starting])
        for col in combinations(range(1, top + 1), height)}))


def _walk_column(partial, top: int, height: int, finishing, limits, starting) -> list:
    """One step of the walk over the witness tableaux of a weight: the
    partial rows after column k, a height-subset of 1..top, where top and
    height are c_{k-1} and c_k of _column_heights.  The configuration
    builder takes it column by column to list the minimal riggable
    profiles; _admissible runs _chain_column, on the same pair, instead.

    A partial row is a pair (done, pending): the bounds of the finished
    entries, and the bounds so far of the entries of component k-1.
    Column k adds to the entries of components k-1 and k only, so it
    makes those of component k-1 final and starts those of component k.
    finishing is the tuple of the lengths of the entries of component k-1,
    limits lists their limits, and starting is the tuple of the lengths of
    those of component k; a row is dropped as soon as a final bound
    exceeds its limit.  From [((), ())], columns
    1..n leave exactly the minimal rows (done, ()) of witness tableaux
    within the limits, each once, so the walk keeps a plain list and
    filters nothing at the end.

    Let f_k(l) = #{x in column k : x <= l}, so the entry (a, l) of a row
    is f_{a+1}(l) - f_a(l), over the lengths L_a of component a; column 1
    is forced (c_0 = c_1), and column n is empty.  A kept option of column
    k is fixed by its added, alpha = f_k on L_{k-1}, and its start is that
    of F_k(alpha), the largest counting function with those values:
    F_k(alpha)(x) = min(x, c_k, alpha_i + x - l_i for l_i <= x, alpha_j
    for l_j >= x), which is monotone in alpha.  Take two rows A <= B
    pointwise.  Forward: component 1 gives alpha_2^A <= alpha_2^B, so
    f_2^A <= f_2^B; once f_a^A <= f_a^B, component a gives f_{a+1}^A <=
    f_{a+1}^B - (f_a^B - f_a^A) <= f_{a+1}^B on L_a, so f_k^A <= f_k^B for
    every k.  Backward: component n-1 gives f_{n-1}^A >= f_{n-1}^B on
    L_{n-1}, so A's option of column n-1 lies at or below B's; B's is
    undominated, so the two are equal.  Component n-2 then gives the same
    at column n-2, and so on down to column 2.  So A = B, from the same
    options: the rows left at the end are pairwise incomparable, and as
    they include every minimal row (_column_counts), they are exactly the
    minimal rows.  Read with equalities, the forward half also shows that two option
    sequences giving one partial row have the same added, hence the same
    option, at every column, so no column builds a row twice.
    """
    counts = _column_counts(top, height, finishing, starting)
    grown = []
    for done, pending in partial:
        for added, start in counts:
            final = []
            for p, c, limit in zip(pending, added, limits):
                if p + c > limit:
                    break
                final.append(p + c)
            else:
                grown.append((done + tuple(final), start))
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


def _admissible(factors, weight, lengths, strings) -> bool:
    """The one admissibility rule: whether no rigging exceeds its vacancy
    number and one witness tableau bounds every rigging from below.

    factors are the (height, width) of every tensor factor in any order,
    weight the configuration's weight, lengths the part lengths of
    components 0..n (0 and n empty) as component_vacancy reads them, and
    strings one iterable of (length, rigging) pairs per component
    1..n-1, in any order.  Per length, the vacancy number is read once,
    at the first string of that length, and every rigging is held to it
    (a rigging below the lowest so far cannot exceed it); only the lowest
    rigging of each length bounds the witness.

    With cnt_k(l) the number of entries <= l in column k, bound(a, l)
    is cnt_{a+1}(l) - cnt_a(l), so the strings of component a cap
    cnt_{a+1} by their lowest riggings plus cnt_a.  A larger cnt_a only
    loosens those caps, so a witness exists exactly when the chain of
    largest columns (_chain_column) does, from column 1, forced because
    c_0 = c_1, to the empty column n.
    """
    heights = _column_heights(weight)
    cnt = range(heights[0] + 1)
    for a, comp in enumerate(strings, start=1):
        lowest: dict[int, int] = {}
        vacancy: dict[int, int] = {}
        for l, x in comp:
            if l in lowest:
                if x < lowest[l]:
                    lowest[l] = x
                elif x > vacancy[l]:
                    return False
            else:
                v = vacancy[l] = component_vacancy(factors, lengths, a, l)
                if x > v:
                    return False
                lowest[l] = x
        cnt = _chain_column(cnt, heights[a], heights[a + 1], lowest)
        if cnt is None:
            return False
    return True


# ---------------------------------------------------------------------------
# rigged configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RiggedConfiguration:
    """Strings (length, rigging) per component, plus the ambient data.

    Strings are kept sorted by decreasing length, then decreasing
    rigging, so equality is multiset equality.  The constructor refuses
    lengths and riggings that are not ints, and component sizes other
    than the ones the weight forces (_config_sizes), so admissibility is
    a condition on the riggings alone.
    """

    spec: CrystalSpec
    weight: tuple[int, ...]
    strings: tuple[tuple[tuple[int, int], ...], ...]

    def __post_init__(self):
        for comp in json_list(self.strings, 'nu'):
            json_list(comp, 'nu component', 'nu string')
        object.__setattr__(self, 'weight', check_weight(self.spec, self.weight))
        n = self.spec.n
        if len(self.strings) != n - 1:
            raise BadInputError(f'expected {n - 1} components')
        canon = []
        for comp in self.strings:
            comp = tuple(sorted([(json_int(l), json_int(x)) for l, x in comp], reverse=True))
            if comp and comp[-1][0] < 1:
                raise BadInputError('string lengths must be positive')
            canon.append(comp)
        sizes = [sum(l for l, _ in comp) for comp in canon]
        if sizes != _config_sizes(self.spec, self.weight, _column_heights(self.weight)):
            raise BadInputError('component sizes are not the ones the weight forces')
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
            raise BadInputError('part length must be positive')
        return spec_vacancy(self.spec, self.partitions, a, i)

    def cocharge(self) -> int:
        return (_config_cocharge(self.partitions)
                + sum(x for comp in self.strings for _, x in comp))

    def is_admissible(self) -> bool:
        """Whether no rigging exceeds its vacancy number and one witness
        tableau bounds every rigging from below: _admissible on the
        canonical strings."""
        return _admissible(self.spec.factors, self.weight,
                           ((), *self.partitions, ()), self.strings)

    def to_json(self) -> dict:
        return {
            'n': self.n,
            'weight': list(self.weight),
            'factors': [list(f) for f in self.spec.factors],
            'nu': [[[l, x] for l, x in comp] for comp in self.strings],
        }

    @classmethod
    def from_json(cls, data) -> 'RiggedConfiguration':
        spec = CrystalSpec.from_json(data)
        weight = json_list(json_ints(json_field(data, 'weight')), 'weight')
        return cls(spec, weight, json_ints(json_field(data, 'nu')))

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

@cache
def _partitions_of(total: int) -> tuple:
    """All partitions of total, in decreasing lexicographic order.

    Each comes as (parts, groups, overlap, lengths): the weakly decreasing
    parts, the pairs (length, multiplicity) of its distinct parts, longest
    first, its overlap function, overlap[l] = sum(min(x, l)) over the
    parts x for l = 0..parts[0], and the tuple of its distinct lengths.
    Past the longest part the overlap is the size, the last entry.
    Level d of one depth_first branch per partition chooses how many
    parts of length total - d to take, most first, and length 1 takes
    whatever is left.  Two partitions first differ at the longest length
    they hold different numbers of, and the one with more of it is the
    larger, so most-first at every level is decreasing lexicographic
    order.  The tuple is built once per size and process.  It holds
    partitions and their overlaps only, keyed by the size alone, so no
    value depends on what the cache holds; each size's entry is one that
    a builder call's option lists hold anyway.
    """
    def step(d, state):
        left, l = state[0], total - d
        return [(left - m * l, m) for m in (range(left // l, -1, -1) if l > 1 else (left,))]

    out = []
    for branch in depth_first((total, 0), total, step):
        groups = tuple([(total - d, m) for d, (_left, m) in enumerate(branch) if m])
        parts = tuple([l for l, m in groups for _ in range(m)])
        # One running sum, shortest length first: from one length to the
        # next, the overlap rises at each step by reach, the number of
        # parts at least that long.
        overlap = [0]
        reach = len(parts)
        for l, m in reversed(groups):
            last = overlap[-1]
            overlap += range(last + reach, last + reach * (l - len(overlap) + 1) + 1, reach)
            reach -= m
        out.append((parts, groups, tuple(overlap), tuple([l for l, _m in groups])))
    return tuple(out)


def _config_sizes(spec: CrystalSpec, weight: tuple[int, ...], heights):
    """The size of each component nu^(1), ..., nu^(n-1) of a checked
    weight, or None when no configuration has them: entry a-1 holds c_a
    of its _column_heights minus the boxes the factors place above level
    a, and the weight must have the factors' total and leave no size
    negative.  The one rule for the sizes; RiggedConfiguration and the
    builder each pass the heights list they read everything else off."""
    if sum(weight) != spec.total_boxes():
        return None
    sizes = [heights[a] - sum([s * (r - a) for r, s in spec.factors if r > a])
             for a in range(1, spec.n)]
    return None if any(sz < 0 for sz in sizes) else sizes


def _witness_floor(top: int, below: int, l: int) -> int:
    """min(t.bound(a, l)) over the witness tableaux t of a weight, read
    off the heights top = c_a and below = c_{a+1} of columns a and a+1.

    The columns are independent: column a holds at most min(l, c_a)
    entries <= l, and column a+1, a c_{a+1}-subset of 1..c_a, at least
    c_{a+1} - max(c_a - l, 0) of them.
    """
    return max(0, below - max(top - l, 0)) - min(l, top)


def _component_options(factors, heights, a: int, size: int, room: int) -> tuple:
    """The per-length values a builder step reads for component a, of the
    given size, beside its options, the partitions of that size
    (_partitions_of): two lists indexed by l = 1..size, each computed once
    per length on every call.  The first holds the factor term of the
    vacancy number, component_vacancy read with every component empty; an
    option's entry at l has the vacancy number short of its neighbours'
    overlaps factor term - 2 * overlap[l], from its own overlap table.  The
    second holds the floor (_witness_floor), read off the heights
    c_0..c_n of _column_heights, less room, the size of the next
    component, which bounds any overlap that component can add."""
    empty = ((),) * (a + 2)
    return ([0, *[component_vacancy(factors, empty, a, l) for l in range(1, size + 1)]],
            [0, *[_witness_floor(heights[a], heights[a + 1], l) - room
                  for l in range(1, size + 1)]])


def enumerate_configurations(spec: CrystalSpec, weight):
    """The configurations with a riggable witness profile, each with its
    string support, vacancy numbers and minimal riggable profiles.

    Yields (partitions, support, vacancies, profiles): support lists the
    triples (a, l, multiplicity) of each component in turn, lengths
    decreasing, and vacancies the vacancy number of each triple.  A
    profile lists bound(a, l) of one witness tableau for every support
    entry, in support order.  It is riggable when no bound is above the
    vacancy number of its entry, and minimal when no other riggable
    profile lies pointwise below it; profiles is the nonempty list of the
    distinct minimal riggable ones, in walk order.  Configurations
    come in the order of the product of the component partitions, each in
    decreasing lexicographic order.

    The weight is checked once, and the component sizes are read off its
    one list of column heights (_config_sizes).  Each component's options
    are the partitions of its size, with their overlap tables, from the
    per-size table of _partitions_of, which no value depends on; the
    factor terms and floors per length come from _component_options,
    computed afresh on every call.  The builder takes only the factor term
    of each vacancy number from component_vacancy and adds every overlap,
    the component's own included, by one lookup in an overlap table.

    Components are chosen nu^(1), nu^(2), ... one crystal.depth_first
    step each, and last nu^(n), whose one choice is the empty partition.
    A state holds only its own level: nu^(a), its groups and its overlap
    table, the vacancy numbers of nu^(a-1) it makes final, its own short
    of the overlap with nu^(a+1) and their lengths, and the partial
    witness rows after column a; the leaf joins the branch into the
    support, the vacancy numbers and the profiles.
    The vacancy numbers of component a depend only on nu^(a-1), nu^(a)
    and nu^(a+1), so choosing nu^(a+1) makes them final and advances the
    rows by column a+1 (_walk_column).  A prefix is dropped when no row
    is left, since then no extension has a riggable profile, or when
    even the largest overlap nu^(a+1) can add leaves a vacancy number of
    nu^(a) below its floor, the least bound(a, l) over all witness
    tableaux (_witness_floor).  The walk takes only the undominated
    options of each column (_column_counts), which leaves exactly the
    minimal riggable profiles, each once (_walk_column).
    """
    weight = check_weight(spec, weight)
    heights = _column_heights(weight)
    sizes = _config_sizes(spec, weight, heights)
    if sizes is None:
        return
    # Component n is the one empty partition.  The overlap of nu^(a+1)
    # with any length is at most its size, its room.
    sizes.append(0)
    levels = [(_partitions_of(size), *_component_options(spec.factors, heights, a, size, room))
              for a, (size, room) in enumerate(zip(sizes, [*sizes[1:], 0]), start=1)]

    def step(d, state):
        _parts, _groups, left, _final, pending, finishing, partial = state
        top, height = heights[d], heights[d + 1]
        table, term, floor = levels[d]
        # An overlap table ends at the longest part; past it, the overlap
        # is the size, the table's last entry.
        last = len(left) - 1
        for parts, groups, overlap, lengths in table:
            started = []
            for l in lengths:
                p = term[l] - 2 * overlap[l] + left[l if l < last else last]
                if p < floor[l]:
                    break
                started.append(p)
            else:
                end = len(overlap) - 1
                final = [p + overlap[l if l < end else end] for l, p in zip(finishing, pending)]
                grown = _walk_column(partial, top, height, finishing, final, lengths)
                if grown:
                    yield parts, groups, overlap, final, started, lengths, grown

    for branch in depth_first(((), (), (0,), [], [], (), [((), ())]), spec.n, step):
        yield (tuple([state[0] for state in branch[:-1]]),
               [(a, l, m) for a, state in enumerate(branch, start=1) for l, m in state[1]],
               [p for state in branch for p in state[3]],
               [row for row, _pending in branch[-1][6]])


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
    """The complete set of rigged configurations, ordered by strings, the
    order `kostka rcs` prints.

    For each configuration, rigging assignments are enumerated inside
    the box [bound, vacancy] of each of its minimal riggable witness
    profiles (enumerate_configurations), and deduplicated across
    profiles.  The box of any other riggable profile lies inside one of
    these, so no assignment is lost.  No witness tableau is built, and no
    budget applies.
    Configurations without a riggable profile, and every extension of a
    prefix that has none, are never built: they admit no rigging.
    """
    weight = check_weight(spec, weight)
    return sorted(_rcs_from(spec, weight, enumerate_configurations(spec, weight)),
                  key=lambda rc: rc.strings)


def _rcs_from(spec: CrystalSpec, weight: tuple, configs) -> list[RiggedConfiguration]:
    """The rigged configurations of a checked weight tuple, each once and
    in no set order, read off configs, the output of
    enumerate_configurations(spec, weight)."""
    out: list[RiggedConfiguration] = []
    for _parts, support, vacancies, profiles in configs:
        for assignment in _riggings(support, vacancies, profiles):
            comps: list[list[tuple[int, int]]] = [[] for _ in range(spec.n - 1)]
            for (a, l, _m), riggings in zip(support, assignment):
                comps[a - 1].extend((l, x) for x in riggings)
            out.append(RiggedConfiguration._trusted(spec, weight, comps))
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
    A configuration with one profile needs no DP, its one term being that
    profile with count 1.  On two or more the DP runs on profiles packed
    into integers, where a pointwise maximum is a few integer operations
    (_signed_maxima), and unpacks each key (_signed_terms).

    Only riggable profiles (no bound above its vacancy number) enter.
    This is exact: if a subset holds a profile with some bound low > p,
    its pointwise maximum keeps a bound above p on that entry, so its
    term carries the factor qbinom(m, p - low) = 0.  A configuration
    without a riggable profile contributes nothing, and
    enumerate_configurations never builds one.  No witness tableau is
    built, and no budget applies.

    Of those, only the minimal profiles enter, the ones with no other
    profile pointwise below them, which are the ones the builder yields,
    in an order the sum does not depend on.  This is exact too: the
    signed sum is inclusion-exclusion for the union of the rigging boxes
    [v, P], one per profile v, with P the vacancy numbers, and the box of
    a profile above another lies inside that one's box, so it adds
    nothing to the union.
    Each signed term is count * q^shift times the product of
    qbinom(m, p - low) over its entries, where shift is the cocharge plus
    the sum of m * low; the terms are grouped by shift and the sorted pairs
    (m, p - low) with p > low (the others are factors of 1), and each
    distinct group multiplies its q-binomials once, in place on one
    coefficient list (qpoly._times_qbinom), with no QPolynomial product.
    """
    return _fermionic_polynomial_from(enumerate_configurations(spec, weight))


def _signed_maxima(profiles) -> tuple[dict[int, int], int, int]:
    """The signed max-DP of fermionic_polynomial over two or more distinct
    profiles of one length, on packed integers: (signed, low, width),
    where signed maps each pointwise maximum with a nonzero count to that
    count, and entry i of a key is low + its bits width*i .. width*i +
    width - 2.

    Each profile is packed into one int, entry i offset by the least entry
    low into field i, which is width bits wide: the bits of the largest
    offset entry plus a guard bit on top, clear in every packed profile.
    Within a field, (u + guard) - v cannot borrow from the next field,
    and keeps its guard bit exactly when u's entry is at least v's; the
    guard bits, less themselves shifted down to the bottom of the field,
    fill the fields where u wins, and the maximum takes u there and v
    elsewhere.  The offset and the guard bits are multiples of the
    repunit sum(2^(width*i)), so neither takes a loop per field.
    """
    low = min(map(min, profiles))
    width = (max(map(max, profiles)) - low).bit_length() + 1
    unit = ((1 << width * len(profiles[0])) - 1) // ((1 << width) - 1)
    top = width - 1
    guard = unit << top
    shifts = range(0, width * len(profiles[0]), width)
    signed: dict[int, int] = {}
    for profile in profiles:
        # Packing is linear: offsetting every entry by low subtracts low * unit.
        v = sum(map(lshift, profile, shifts)) - low * unit
        updates = {v: signed.get(v, 0) + 1}
        for u, c in signed.items():
            d = ((u | guard) - v) & guard
            w = v ^ ((u ^ v) & (d - (d >> top)))
            updates[w] = updates.get(w, signed.get(w, 0)) - c
        signed.update(updates)
        signed = {u: c for u, c in signed.items() if c != 0}
    return signed, low, width


def _signed_terms(profiles):
    """The signed max-DP of fermionic_polynomial over the distinct
    profiles of one configuration: pairs (bounds, count), one per
    pointwise maximum of a nonempty subset with a nonzero signed count.

    One profile needs no DP: its one term is itself, with count 1.  Two or
    more run it on packed integers (_signed_maxima), unpacked key by key."""
    if len(profiles) == 1:
        return ((profiles[0], 1),)
    packed, least, width = _signed_maxima(profiles)
    mask = (1 << width) - 1
    fields = range(0, width * len(profiles[0]), width)
    return [([((key >> s) & mask) + least for s in fields], count)
            for key, count in packed.items()]


def _fermionic_polynomial_from(configs) -> QPolynomial:
    """fermionic_polynomial read off configs, the output of
    enumerate_configurations, whose profiles are already minimal."""
    # Signed counts per key (sorted pairs (m, p - low) with p > low, shift).
    groups = Counter()
    for parts, support, vacancies, profiles in configs:
        base = _config_cocharge(parts)
        for bounds, count in _signed_terms(profiles):
            shift = base
            pairs = []
            for (_a, _l, m), low, p in zip(support, bounds, vacancies):
                shift += m * low
                if p > low:
                    pairs.append((m, p - low))
            pairs.sort()
            groups[tuple(pairs), shift] += count
    result = Counter()
    for (pairs, shift), count in groups.items():
        if not count:
            continue
        coeffs = [1]
        for m, d in pairs:
            _times_qbinom(coeffs, m, d)
        for e, c in enumerate(coeffs, start=shift):
            result[e] += count * c
    return QPolynomial(result)
