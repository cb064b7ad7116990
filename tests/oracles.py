"""Independent reference implementations used to cross-check the package.

Everything here favors the most literal reading of the defining rules
over efficiency: bracketing by repeated cancellation, tensor operators
by the two-factor recursion, the correspondence by its defining
recursion, the energy polynomial path by path, the configuration
polynomial configuration by configuration, and the alternating sum
literally over witness subsets.
"""

from collections import Counter
from functools import cache
from itertools import combinations, product as iproduct

from kostka.bijection import (Working, extract_letter, insert_letter, merge_box_rc,
                              merge_column_rc)
from kostka.cli import _compositions, sweep_specs
from kostka.crystal import CrystalSpec, Path, RectTableau
from kostka.paths import enumerate_paths
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
    colabels = []
    for b in range(1, n):
        comp = []
        for idx, (l, x) in enumerate(rc.strings[b - 1]):
            if b == a and idx == sel_index:
                continue
            comp.append((l, oracle_vacancy(rc.partitions, L, n, b, l) - x))
        colabels.append(comp)
    new_parts = [[l for l, _ in comp] for comp in colabels]
    if new_sel is not None:
        new_parts[a - 1].append(new_sel[0])
    strings = [[(l, oracle_vacancy(new_parts, L, n, b, l) - colabel) for l, colabel in comp]
               for b, comp in enumerate(colabels, start=1)]
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
def _fit_mask(weight, a, l, x):
    """Bit i set when the i-th witness tableau has bound(a, l) <= x."""
    return sum(1 << i for i, t in enumerate(_witnesses(weight)) if t.bound(a, l) <= x)


def first_witness(rc):
    """The first witness tableau, in enumeration order, that bounds every
    rigging from below, or None: every tableau of the witness set is
    tested on every string, after the size and vacancy checks."""
    spec, weight, n = rc.spec, rc.weight, rc.n
    if sum(weight) != spec.total_boxes() or \
            [sum(p) for p in rc.partitions] != oracle_sizes(spec, weight):
        return None
    L = oracle_multiplicities(spec)
    strings = [(a, l, x) for a in range(1, n) for l, x in rc.strings[a - 1]]
    vacancies = {(a, l): oracle_vacancy(rc.partitions, L, n, a, l) for a, l, _x in strings}
    if any(x > vacancies[a, l] for a, l, x in strings):
        return None
    tableaux = _witnesses(weight)
    fits = (1 << len(tableaux)) - 1
    for a, l, x in strings:
        fits &= _fit_mask(weight, a, l, x)
    return tableaux[(fits & -fits).bit_length() - 1] if fits else None


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


def unfiltered_fermionic(spec, weight):
    """The signed max-DP over every distinct witness profile of each
    configuration, with no riggability filter: a profile with a bound
    above its vacancy number enters the DP and its terms vanish through
    qbinom.
    """
    weight = tuple(weight)
    n = spec.n
    L = oracle_multiplicities(spec)
    result = QPolynomial.zero()
    for parts in full_configurations(spec, weight):
        triples = strings_by_length(parts)
        profiles = {tuple(t.bound(a, length) for a, length, _m in triples)
                    for t in bound_tableaux(weight)}
        signed = {}
        for v in profiles:
            updates = {v: signed.get(v, 0) + 1}
            for u, c in signed.items():
                w = tuple(max(x, y) for x, y in zip(u, v))
                updates[w] = updates.get(w, signed.get(w, 0)) - c
            signed.update(updates)
            signed = {u: c for u, c in signed.items() if c != 0}
        # The signs of the nonempty subsets of a nonempty set sum to 1.
        if sum(signed.values()) != 1:
            raise AssertionError(f'signed counts {signed} do not sum to 1 on {parts}')
        base = oracle_config_cc(parts, n)
        for bounds, count in signed.items():
            term = QPolynomial.monomial(base, count)
            for (a, length, m), low in zip(triples, bounds):
                p = oracle_vacancy(parts, L, n, a, length)
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
    each energy summed pair by pair by oracle_tail_energy."""
    return QPolynomial(Counter(oracle_tail_energy(b) for b in enumerate_paths(spec, weight)))


def macmahon_polynomial(weight):
    """The q-multinomial of the weight, prod_i qbinom(mu_i, mu_{i+1} + ...
    + mu_n): by MacMahon, the major-index count of the words of content
    mu, and so the energy polynomial of (1,1)^L at the weight mu."""
    out = QPolynomial.one()
    for i, m in enumerate(weight):
        out = out * qbinom(m, sum(weight[i + 1:]))
    return out


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
