"""Independent reference implementations used to cross-check the package.

Everything here favors the most literal reading of the defining rules
over efficiency: bracketing by repeated cancellation, tensor operators
by the two-factor recursion, the correspondence by its defining
recursion, the energy polynomial path by path, the configuration
polynomial configuration by configuration, and the alternating sum
literally over witness subsets.
"""

from collections import Counter
from functools import cache, lru_cache
from itertools import accumulate, combinations, combinations_with_replacement, product as iproduct

from kostka.bijection import (Working, extract_letter, insert_letter, merge_box_rc,
                              merge_column_rc)
from kostka.cli import _compositions, sweep_specs
from kostka.crystal import CrystalSpec, Path, RectTableau
from kostka.errors import InvariantError
from kostka.paths import enumerate_all_paths
from kostka.plactic import local_energy, rmatrix
from kostka.qpoly import QPolynomial, qbinom
from kostka.rc import RiggedConfiguration, bound_tableaux, enumerate_rcs
from kostka.rccrystal import e


def naive_residue(word, i):
    """Unmatched positions of i and i+1 after repeated cancellation.

    A letter i+1 immediately followed by an i inside the {i, i+1}
    subword cancels; repeat until stable.
    """
    sub = [(pos, x) for pos, x in enumerate(word) if x in (i, i + 1)]
    changed = True
    while changed:
        changed = False
        for j in range(len(sub) - 1):
            if sub[j][1] == i + 1 and sub[j + 1][1] == i:
                del sub[j:j + 2]
                changed = True
                break
    return ([pos for pos, x in sub if x == i],
            [pos for pos, x in sub if x == i + 1])


def _split_first(path):
    n = path.spec.n
    left = Path(CrystalSpec(n, path.spec.factors[:1]), path.tableaux[:1])
    rest = Path(CrystalSpec(n, path.spec.factors[1:]), path.tableaux[1:])
    return left, rest


def _join(left, right):
    n = left.spec.n
    return Path(CrystalSpec(n, left.spec.factors + right.spec.factors),
                left.tableaux + right.tableaux)


def _edit_single(path, word_pos, new_letter):
    """Rewrite one letter of a one-factor path, addressed by word position."""
    t = path.tableaux[0]
    row_from_bottom, col = divmod(word_pos, len(t.rows[0]))
    ri = len(t.rows) - 1 - row_from_bottom
    rows = [list(row) for row in t.rows]
    rows[ri][col] = new_letter
    return Path(path.spec, (RectTableau(tuple(tuple(r) for r in rows), t.n),))


def recursive_phi(path, i):
    if not path.spec.factors:
        return 0
    if len(path.spec.factors) == 1:
        return len(naive_residue(path.word(), i)[0])
    left, rest = _split_first(path)
    return recursive_phi(left, i) + max(
        0, recursive_phi(rest, i) - recursive_eps(left, i))


def recursive_eps(path, i):
    if not path.spec.factors:
        return 0
    if len(path.spec.factors) == 1:
        return len(naive_residue(path.word(), i)[1])
    left, rest = _split_first(path)
    return recursive_eps(rest, i) + max(
        0, recursive_eps(left, i) - recursive_phi(rest, i))


def recursive_f(path, i):
    if not path.spec.factors:
        return None
    if len(path.spec.factors) == 1:
        lo, _hi = naive_residue(path.word(), i)
        if not lo:
            return None
        return _edit_single(path, lo[-1], i + 1)
    left, rest = _split_first(path)
    if recursive_phi(rest, i) > recursive_eps(left, i):
        changed = recursive_f(rest, i)
        return None if changed is None else _join(left, changed)
    changed = recursive_f(left, i)
    return None if changed is None else _join(changed, rest)


def recursive_e(path, i):
    if not path.spec.factors:
        return None
    if len(path.spec.factors) == 1:
        _lo, hi = naive_residue(path.word(), i)
        if not hi:
            return None
        return _edit_single(path, hi[0], i)
    left, rest = _split_first(path)
    if recursive_eps(left, i) > recursive_phi(rest, i):
        changed = recursive_e(left, i)
        return None if changed is None else _join(changed, rest)
    changed = recursive_e(rest, i)
    return None if changed is None else _join(left, changed)


def semistandard(rows):
    """Whether rows, a tuple of row tuples, is a semistandard tableau of
    partition shape: row lengths weakly decrease, no row is empty, rows
    weakly increase and columns strictly increase."""
    lengths = [len(row) for row in rows]
    return (all(a >= b for a, b in zip(lengths, lengths[1:]))
            and all(rows)
            and all(a <= b for row in rows for a, b in zip(row, row[1:]))
            and all(upper[j] < lower[j]
                    for upper, lower in zip(rows, rows[1:])
                    for j in range(len(lower))))


def tableau_error(rows, n):
    """The message of the ValueError that RectTableau(rows, n) raises, or
    None when it accepts them: its checks written out in their order,
    with each column listed and checked on its own."""
    rows = tuple(tuple(row) for row in rows)
    if type(n) is not int:
        return f'expected an integer, got {n!r}'
    if not rows:
        return 'tableau needs at least one row'
    s = len(rows[0])
    if any(len(row) != s for row in rows):
        return 'rows must all have the same length'
    if s == 0:
        return 'tableau needs at least one column'
    for row in rows:
        for x in row:
            if type(x) is not int:
                return f'expected an integer, got {x!r}'
            if not 1 <= x <= n:
                return f'entry {x} outside alphabet 1..{n}'
        if any(a > b for a, b in zip(row, row[1:])):
            return 'rows must weakly increase'
    for j in range(s):
        col = [row[j] for row in rows]
        if any(a >= b for a, b in zip(col, col[1:])):
            return 'columns must strictly increase'
    return None


def row_insert(rows, x):
    """Schensted row insertion of the letter x into rows, written out: x
    bumps the leftmost entry of a row that exceeds it into the next row
    down.  Returns the new rows."""
    rows = [list(row) for row in rows]
    for row in rows:
        larger = [j for j, y in enumerate(row) if y > x]
        if not larger:
            row.append(x)
            break
        j = larger[0]
        row[j], x = x, row[j]
    else:
        rows.append([x])
    return tuple(map(tuple, rows))


# ---------------------------------------------------------------------------
# the correspondence by its defining recursion
# ---------------------------------------------------------------------------

def empty_rc(n):
    return RiggedConfiguration(CrystalSpec(n, ()), (0,) * n, ((),) * (n - 1))


def pop_letter(path):
    """Remove a leading single-box factor, returning its value."""
    if not path.spec.factors or path.spec.factors[0] != (1, 1):
        raise ValueError('leftmost factor must be a single box')
    letter = path.tableaux[0].rows[0][0]
    rest = CrystalSpec(path.spec.n, path.spec.factors[1:])
    return letter, Path(rest, path.tableaux[1:])


def peel_column(path):
    """Split the leftmost factor into its first column and the rest."""
    if not path.spec.factors:
        raise ValueError('no factors to split')
    r, s = path.spec.factors[0]
    if s < 2:
        raise ValueError('leftmost factor must have width at least 2')
    t = path.tableaux[0]
    first = RectTableau(tuple((row[0],) for row in t.rows), t.n)
    rest = RectTableau(tuple(row[1:] for row in t.rows), t.n)
    spec = CrystalSpec(path.spec.n, ((r, 1), (r, s - 1)) + path.spec.factors[1:])
    return Path(spec, (first, rest) + path.tableaux[1:])


def peel_box(path):
    """Split a leading column factor into its bottom box and the rest.

    The bottom entry is the largest, so the split preserves the row
    word letter for letter.
    """
    if not path.spec.factors:
        raise ValueError('no factors to split')
    r, s = path.spec.factors[0]
    if s != 1 or r < 2:
        raise ValueError('leftmost factor must be a column of height at least 2')
    t = path.tableaux[0]
    box = RectTableau(((t.rows[-1][0],),), t.n)
    rest = RectTableau(t.rows[:-1], t.n)
    spec = CrystalSpec(path.spec.n, ((1, 1), (r - 1, 1)) + path.spec.factors[1:])
    return Path(spec, (box, rest) + path.tableaux[1:])


def stepped(step, rc, *args):
    """The configuration a bijection step leaves, run on a copy of rc."""
    work = Working(rc)
    step(work, *args)
    return work.freeze()


def extracted(rc):
    """extract_letter on a copy of rc: the configuration left and the letter."""
    work = Working(rc)
    letter = extract_letter(work)
    return work.freeze(), letter


def recursive_correspondence(path):
    """The path-to-configuration map by its defining recursion."""
    if not path.spec.factors:
        return empty_rc(path.spec.n)
    r, s = path.spec.factors[0]
    if (r, s) == (1, 1):
        letter, rest = pop_letter(path)
        return stepped(insert_letter, recursive_correspondence(rest), letter)
    if s >= 2:
        return stepped(merge_column_rc, recursive_correspondence(peel_column(path)))
    return stepped(merge_box_rc, recursive_correspondence(peel_box(path)))


# ---------------------------------------------------------------------------
# the letter steps by their candidate lists
# ---------------------------------------------------------------------------

def listed_extract_letter(work):
    """extract_letter by its selection rule read literally: at each
    component, list every singular string no shorter than the previous
    pick (Working.singular), then take the least (length, index)."""
    if not work.factors or work.factors[-1] != (1, 1):
        raise ValueError('leftmost factor must be a single box')
    chosen = []
    floor = 1
    for a in range(1, work.n):
        candidates = work.singular(a, floor, float('inf'))
        if not candidates:
            break
        floor, idx = min(candidates)
        chosen.append((a, idx))
    rank = len(chosen) + 1
    if work.weight[rank - 1] == 0:
        raise InvariantError(f'extracting letter {rank}, which does not occur')
    work.factors.pop()
    work.weight[rank - 1] -= 1
    for a, idx in chosen:
        work.lengths[a][idx] -= 1
    for a, idx in chosen:
        if work.lengths[a][idx]:
            work.riggings[a][idx] = work.vacancy(a, work.lengths[a][idx])
        else:
            del work.lengths[a][idx], work.riggings[a][idx]
    return rank


def listed_insert_letter(work, letter):
    """insert_letter by its selection rule read literally: at each
    component, list every singular string no longer than the previous
    pick, then take the greatest (length, index), or a fresh string
    when the list is empty."""
    grown = []
    ceiling = float('inf')
    for a in range(letter - 1, 0, -1):
        candidates = work.singular(a, 1, ceiling)
        ceiling, idx = max(candidates) if candidates else (0, len(work.lengths[a]))
        grown.append((a, idx))
    work.factors.append((1, 1))
    work.weight[letter - 1] += 1
    for a, idx in grown:
        if idx == len(work.lengths[a]):
            work.lengths[a].append(0)
            work.riggings[a].append(0)
        work.lengths[a][idx] += 1
    for a, idx in grown:
        work.riggings[a][idx] = work.vacancy(a, work.lengths[a][idx])


# ---------------------------------------------------------------------------
# literal configuration-side arithmetic
# ---------------------------------------------------------------------------

def oracle_multiplicities(spec):
    counts = {}
    for r, s in spec.factors:
        counts[(r, s)] = counts.get((r, s), 0) + 1
    return counts


def oracle_vacancy(partitions, L, n, a, i):
    total = sum(cnt * min(i, j) for (b, j), cnt in L.items() if b == a)
    for b in range(1, n):
        pairing = 2 if b == a else (-1 if abs(b - a) == 1 else 0)
        total -= pairing * sum(min(i, y) for y in partitions[b - 1])
    return total


def iterated_epsilon(rc, a):
    """Raising steps available on component a, by applying e until it
    is undefined."""
    count = 0
    current = e(rc, a)
    while current is not None:
        count += 1
        current = e(current, a)
    return count


def colabel_rebuild(rc, a, sel_index, new_sel, new_weight):
    """Replace string sel_index of component a by new_sel (None drops
    it; sel_index None appends), then re-rig every other string so that
    its colabel, vacancy number less rigging, is what it was."""
    n = rc.n
    L = oracle_multiplicities(rc.spec)
    partitions = rc.partitions
    colabels = []
    for b in range(1, n):
        vacancy = {l: oracle_vacancy(partitions, L, n, b, l) for l in set(partitions[b - 1])}
        colabels.append([(l, vacancy[l] - x) for idx, (l, x) in enumerate(rc.strings[b - 1])
                         if b != a or idx != sel_index])
    new_parts = [[l for l, _ in comp] for comp in colabels]
    if new_sel is not None:
        new_parts[a - 1].append(new_sel[0])
    strings = []
    for b, comp in enumerate(colabels, start=1):
        vacancy = {l: oracle_vacancy(new_parts, L, n, b, l) for l in set(new_parts[b - 1])}
        strings.append([(l, vacancy[l] - colabel) for l, colabel in comp])
    if new_sel is not None:
        strings[a - 1].append(new_sel)
    return RiggedConfiguration(rc.spec, tuple(new_weight), tuple(map(tuple, strings)))


def admissible_f(rc, a):
    """Lowering by building the candidate and testing its admissibility,
    instead of reading the answer off phi."""
    n = rc.n
    if not 1 <= a <= n - 1:
        raise ValueError(f'component {a} outside 1..{n - 1}')
    comp = rc.strings[a - 1]
    nonpos = [(x, -l, idx) for idx, (l, x) in enumerate(comp) if x <= 0]
    if nonpos:
        x, neg_l, idx = min(nonpos)
        sel_index, new_sel = idx, (-neg_l + 1, x - 1)
    else:
        sel_index, new_sel = None, (1, -1)
    new_weight = list(rc.weight)
    new_weight[a - 1] -= 1
    new_weight[a] += 1
    if new_weight[a - 1] < 0:
        return None
    out = colabel_rebuild(rc, a, sel_index, new_sel, new_weight)
    if not out.is_admissible():
        return None
    return out


def colabel_e(rc, a):
    """Raising by its defining rule: the string with the smallest negative
    rigging, ties toward shorter ones, loses a box and its rigging rises
    by one more, every other colabel kept; None without a negative
    rigging."""
    negative = [(x, l, idx) for idx, (l, x) in enumerate(rc.strings[a - 1]) if x < 0]
    if not negative:
        return None
    x, l, idx = min(negative)
    new_weight = list(rc.weight)
    new_weight[a - 1] += 1
    new_weight[a] -= 1
    return colabel_rebuild(rc, a, idx, (l - 1, x + 1) if l > 1 else None, new_weight)


@cache
def _witnesses(weight):
    return bound_tableaux(weight)


@cache
def _bounds(weight, a, l):
    """bound(a, l) of each witness tableau, in enumeration order; it reads
    columns a and a+1 only, so each pair of them is asked once."""
    by_columns = {}
    out = []
    for t in _witnesses(weight):
        pair = t.columns[a - 1:a + 1]
        if pair not in by_columns:
            by_columns[pair] = t.bound(a, l)
        out.append(by_columns[pair])
    return out


@cache
def _fit_mask(weight, a, l, x):
    """Bit i set when the i-th witness tableau has bound(a, l) <= x."""
    return sum(1 << i for i, bound in enumerate(_bounds(weight, a, l)) if bound <= x)


def first_witness(rc):
    """The first witness tableau, in enumeration order, that bounds every
    rigging from below, or None: every tableau of the witness set is
    tested on every string, after the size and vacancy checks."""
    spec, weight, n, partitions = rc.spec, rc.weight, rc.n, rc.partitions
    if sum(weight) != spec.total_boxes() or \
            [sum(p) for p in partitions] != oracle_sizes(spec, weight):
        return None
    L = oracle_multiplicities(spec)
    strings = [(a, l, x) for a in range(1, n) for l, x in rc.strings[a - 1]]
    vacancies = {(a, l): oracle_vacancy(partitions, L, n, a, l)
                 for a, l in {(a, l) for a, l, _x in strings}}
    if any(x > vacancies[a, l] for a, l, x in strings):
        return None
    tableaux = _witnesses(weight)
    fits = (1 << len(tableaux)) - 1
    for a, l, x in strings:
        fits &= _fit_mask(weight, a, l, x)
    return tableaux[(fits & -fits).bit_length() - 1] if fits else None


def rigging_shifts(strings, shifts):
    """The one-rigging shifts of strings, one sequence of (length, rigging)
    pairs per component: for each component, each string in it and each
    shift in turn, a list of the components with that string's rigging
    moved by the shift, the moved component as a list."""
    for a, comp in enumerate(strings):
        for idx, (l, x) in enumerate(comp):
            for shift in shifts:
                moved = list(strings)
                moved[a] = [*comp[:idx], (l, x + shift), *comp[idx + 1:]]
                yield moved


def oracle_config_cc(partitions, n):
    double = 0
    for a in range(1, n):
        for b in range(1, n):
            pairing = 2 if b == a else (-1 if abs(b - a) == 1 else 0)
            double += pairing * sum(min(x, y)
                                    for x in partitions[a - 1]
                                    for y in partitions[b - 1])
    if double % 2:
        raise AssertionError(f'odd doubled cocharge {double} for {partitions}')
    return double // 2


def filtered_crystal(r, s, n):
    """The rows of every column-strict r x s tableau over {1..n}: every
    multiset of s columns (r-subsets of {1..n}), in the order that
    combinations_with_replacement lists them, kept when each column lies
    entrywise at or above the one to its left."""
    columns = combinations(range(1, n + 1), r)
    return tuple(tuple(zip(*cols)) for cols in combinations_with_replacement(columns, s)
                 if all(x <= y for left, right in zip(cols, cols[1:])
                        for x, y in zip(left, right)))


def preorder_specs(max_n, box_cap):
    """Every factor sequence with at most box_cap boxes, for n = 2..max_n,
    as (n, factors): the sequences of indices into the shapes (r, s) with
    r in 1..n-1 and r * s <= box_cap, listed length by length and then
    sorted, so that a sequence comes before its extensions."""
    out = []
    for n in range(2, max_n + 1):
        shapes = [(r, s) for r in range(1, n) for s in range(1, box_cap + 1)
                  if r * s <= box_cap]
        boxes = [r * s for r, s in shapes]
        level, found = [()], []
        while level:
            found += level
            level = [seq + (i,) for seq in level for i in range(len(shapes))
                     if sum(boxes[j] for j in seq) + boxes[i] <= box_cap]
        out += [(n, tuple(shapes[i] for i in seq)) for seq in sorted(found)]
    return out


def partitions_of(total):
    if total == 0:
        yield ()
        return

    def rec(remaining, largest):
        if remaining == 0:
            yield ()
            return
        for first in range(min(remaining, largest), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest

    yield from rec(total, total)


def partition_table(total):
    """Each partition of total, in partitions_of's order, with the pairs
    (length, multiplicity) of its distinct parts, longest first, counted
    part by part."""
    return [(parts, tuple(sorted(Counter(parts).items(), reverse=True)))
            for parts in partitions_of(total)]


def oracle_sizes(spec, weight):
    L = oracle_multiplicities(spec)
    sizes = []
    for a in range(1, spec.n):
        above = sum(cnt * i * max(b - a, 0) for (b, i), cnt in L.items())
        sizes.append(sum(weight[a:]) - above)
    return sizes


def full_configurations(spec, weight):
    """Every tuple of component partitions of the forced sizes: the
    full product, with no pruning."""
    if sum(weight) != spec.total_boxes():
        return
    sizes = oracle_sizes(spec, weight)
    if any(sz < 0 for sz in sizes):
        return
    yield from iproduct(*[list(partitions_of(sz)) for sz in sizes])


def strings_by_length(parts):
    """(component, length, multiplicity) triples for one configuration."""
    out = []
    for a, comp in enumerate(parts, start=1):
        seen = {}
        for y in comp:
            seen[y] = seen.get(y, 0) + 1
        for length in sorted(seen, reverse=True):
            out.append((a, length, seen[length]))
    return out


def subset_fermionic(spec, weight):
    """The alternating sum taken literally over witness subsets.

    Exponential in the witness count; only usable on tiny weights.
    """
    weight = tuple(weight)
    n = spec.n
    L = oracle_multiplicities(spec)
    tableaux = bound_tableaux(weight)
    result = QPolynomial.zero()
    for size in range(1, len(tableaux) + 1):
        sign = 1 if size % 2 == 1 else -1
        for subset in combinations(tableaux, size):
            for parts in full_configurations(spec, weight):
                term = QPolynomial.monomial(oracle_config_cc(parts, n))
                for a, length, m in strings_by_length(parts):
                    low = max(t.bound(a, length) for t in subset)
                    p = oracle_vacancy(parts, L, n, a, length)
                    term = term * qbinom(m, p - low).shift(m * low)
                result = result + sign * term
    return result


def signed_maxima(profiles):
    """The signed max-DP on tuples: the signed count of each pointwise
    maximum of a nonempty subset of the distinct profiles, sign
    (-1)^(size+1), with the zero counts dropped."""
    signed = {}
    for v in profiles:
        updates = {v: signed.get(v, 0) + 1}
        for u, c in signed.items():
            w = tuple(max(x, y) for x, y in zip(u, v))
            updates[w] = updates.get(w, signed.get(w, 0)) - c
        signed.update(updates)
        signed = {u: c for u, c in signed.items() if c != 0}
    return signed


def unfiltered_fermionic(spec, weight):
    """The signed max-DP over every distinct witness profile of each
    configuration, with no riggability filter: a profile with a bound
    above its vacancy number enters the DP and its terms vanish through
    qbinom.
    """
    weight = tuple(weight)
    n = spec.n
    L = oracle_multiplicities(spec)
    tableaux = bound_tableaux(weight)
    columns = {}
    result = QPolynomial.zero()
    for parts in full_configurations(spec, weight):
        triples = strings_by_length(parts)
        for a, length, _m in triples:
            if (a, length) not in columns:
                columns[a, length] = [t.bound(a, length) for t in tableaux]
        profiles = (set(zip(*[columns[a, length] for a, length, _m in triples]))
                    if triples else {()})
        signed = signed_maxima(profiles)
        # The signs of the nonempty subsets of a nonempty set sum to 1.
        if sum(signed.values()) != 1:
            raise AssertionError(f'signed counts {signed} do not sum to 1 on {parts}')
        base = oracle_config_cc(parts, n)
        vacancies = [oracle_vacancy(parts, L, n, a, length) for a, length, _m in triples]
        for bounds, count in signed.items():
            term = QPolynomial.monomial(base, count)
            for (_a, _length, m), p, low in zip(triples, vacancies, bounds):
                term = term * qbinom(m, p - low).shift(m * low)
            result = result + term
    return result


def brute_rcs(spec, weight):
    """Every admissible rigged configuration, by exhaustive filtering."""
    weight = tuple(weight)
    n = spec.n
    L = oracle_multiplicities(spec)
    tableaux = bound_tableaux(weight)
    found = set()
    for parts in full_configurations(spec, weight):
        triples = strings_by_length(parts)
        ranges = []
        feasible = True
        for a, length, m in triples:
            p = oracle_vacancy(parts, L, n, a, length)
            low = min(t.bound(a, length) for t in tableaux)
            if p < low:
                feasible = False
                break
            ranges.append([combo for combo in iproduct(range(low, p + 1),
                                                       repeat=m)])
        if not feasible:
            continue
        for assignment in iproduct(*ranges):
            flat = [(a, length, x)
                    for (a, length, _m), riggings in zip(triples, assignment)
                    for x in riggings]
            if not any(all(x >= t.bound(a, length) for a, length, x in flat)
                       for t in tableaux):
                continue
            comps = [[] for _ in range(n - 1)]
            for a, length, x in flat:
                comps[a - 1].append((length, x))
            found.add(RiggedConfiguration(
                spec, weight, tuple(tuple(c) for c in comps)))
    return found


def oracle_tail_energy(path):
    """Tail energy with the R-matrix chain rebuilt for every pair (i, j).

    Factor positions are numbered 1..k from the rightmost factor.  The
    term for a pair i < j is H_{j-1} R_{j-2} ... R_i applied to the
    path, where R_m swaps positions m and m+1 and H_m evaluates the
    local energy of the adjacent pair (position m+1 tensor position m).
    """
    tabs = list(path.tableaux)          # left to right
    k = len(tabs)
    total = 0
    for i in range(1, k + 1):
        for j in range(i + 1, k + 1):
            work = list(tabs)
            for m in range(i, j - 1):
                # R_m swaps positions m and m+1; position p sits at
                # list index k - p.
                left_idx = k - (m + 1)
                new_left, new_right = rmatrix(work[left_idx], work[left_idx + 1])
                work[left_idx], work[left_idx + 1] = new_left, new_right
            m = j - 1
            left_idx = k - (m + 1)
            total += local_energy(work[left_idx], work[left_idx + 1])
    return total


def oracle_path_polynomial(spec, weight):
    """Sum of q^(tail energy) over the paths of the weight, path by path,
    each energy summed pair by pair by oracle_tail_energy.  The paths are
    every path of the spec grouped by weight, so the package's transfer
    step lists none of them."""
    return QPolynomial(Counter(oracle_tail_energy(b)
                               for b in _paths_by_weight(spec).get(tuple(weight), ())))


@lru_cache(maxsize=1)
def _paths_by_weight(spec):
    """Every path of the spec, grouped by weight; the last spec's grouping
    is kept, since the tests ask about many weights of one spec in a row."""
    groups = {}
    for b in enumerate_all_paths(spec):
        groups.setdefault(b.weight(), []).append(b)
    return groups


def macmahon_polynomial(weight):
    """The q-multinomial of the weight, prod_i qbinom(mu_i, mu_{i+1} + ...
    + mu_n): by MacMahon, the major-index count of the words of content
    mu, and so the energy polynomial of (1,1)^L at the weight mu."""
    out = QPolynomial.one()
    for i, m in enumerate(weight):
        out = out * qbinom(m, sum(weight[i + 1:]))
    return out


def in_support(spec, weight):
    """Whether X(B, mu) is nonzero, by dominance alone: mu, sorted
    decreasingly, must be dominated by lambda(B), whose j-th part sums the
    widths s of the factors (r, s) with r >= j.  B has the weights of its
    top classical component B(lambda(B)), and the weights of B(lambda) are
    the rearrangements of the partitions that lambda dominates."""
    top = [sum(s for r, s in spec.factors if r >= j) for j in range(1, spec.n + 1)]
    mu = sorted(weight, reverse=True)
    return sum(mu) == sum(top) and all(
        x <= y for x, y in zip(accumulate(mu), accumulate(top)))


@cache
def rectangle_weights(n, r, s):
    """The weight multiset of the crystal of (s^r) tableaux over 1..n, from
    its columns: s strictly increasing r-subsets, each weakly below the
    next entry by entry, listed with no tableau or crystal code."""
    weights = Counter()
    for cols in iproduct(combinations(range(n), r), repeat=s):
        if all(x <= y for left, right in zip(cols, cols[1:]) for x, y in zip(left, right)):
            w = [0] * n
            for col in cols:
                for x in col:
                    w[x] += 1
            weights[tuple(w)] += 1
    return weights


def weight_count(spec, weight):
    """The number of paths of the weight, q = 1 of all three methods: the
    factors' weight multisets convolved left to right, each partial sum cut
    to the weights at most the target entry by entry."""
    weight = tuple(weight)
    partial = Counter({(0,) * spec.n: 1})
    for r, s in spec.factors:
        grown = Counter()
        for w, count in partial.items():
            for v, times in rectangle_weights(spec.n, r, s).items():
                u = tuple([x + y for x, y in zip(w, v)])
                if all(x <= y for x, y in zip(u, weight)):
                    grown[u] += count * times
        partial = grown
    return partial[weight]


def oracle_rc_polynomial(spec, weight):
    """Sum of q^cocharge over the rigged configurations of the weight,
    configuration by configuration."""
    return QPolynomial(Counter(rc.cocharge() for rc in enumerate_rcs(spec, weight)))


# ---------------------------------------------------------------------------
# shared case lists
# ---------------------------------------------------------------------------

N5_SPECS = [
    (CrystalSpec(5, ((2, 2), (2, 2), (1, 1), (1, 1))), (2, 2, 2, 2, 2)),
    (CrystalSpec(5, ((2, 1), (3, 1), (1, 2), (1, 1))), (0, 1, 1, 1, 5)),
]
N6_SPEC = CrystalSpec(6, ((3, 2), (3, 2), (1, 1)))


@cache
def sweep_rcs():
    """Every rigged configuration of every composition weight of
    sweep_specs(4, 4), (2,1)(1,2)(1,1) and (2,1)(2,2) at n = 5."""
    specs = sweep_specs(4, 4) + [CrystalSpec(5, ((2, 1), (1, 2), (1, 1))),
                                 CrystalSpec(5, ((2, 1), (2, 2)))]
    return tuple(rc for spec in specs
                 for weight in _compositions(spec.total_boxes(), spec.n)
                 for rc in enumerate_rcs(spec, weight))
