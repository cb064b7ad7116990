"""Independent reference implementations used to cross-check the package.

Everything here favors the most literal reading of the defining rules
over efficiency: bracketing by repeated cancellation, tensor operators
by the two-factor recursion, the correspondence by its defining
recursion, and the alternating sum literally over witness subsets.
"""

from itertools import combinations, product as iproduct

from kostka.bijection import (insert_letter, merge_box_rc, merge_column_rc,
                              peel_box, peel_column, pop_letter)
from kostka.crystal import CrystalSpec, Path, RectTableau
from kostka.plactic import local_energy, rmatrix
from kostka.qpoly import QPolynomial, qbinom
from kostka.rc import bound_tableaux, empty_rc
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
    row_from_bottom, col = divmod(word_pos, t.ncols)
    ri = t.nrows - 1 - row_from_bottom
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


def recursive_correspondence(path):
    """The path-to-configuration map by its defining recursion."""
    if not path.spec.factors:
        return empty_rc(path.spec.n)
    r, s = path.spec.factors[0]
    if (r, s) == (1, 1):
        letter, rest = pop_letter(path)
        return insert_letter(recursive_correspondence(rest), letter)
    if s >= 2:
        return merge_column_rc(recursive_correspondence(peel_column(path)))
    return merge_box_rc(recursive_correspondence(peel_box(path)))


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


def _configs(spec, weight):
    if sum(weight) != spec.total_boxes():
        return
    sizes = oracle_sizes(spec, weight)
    if any(sz < 0 for sz in sizes):
        return
    yield from iproduct(*[list(partitions_of(sz)) for sz in sizes])


def _strings_by_length(parts):
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
            for parts in _configs(spec, weight):
                term = QPolynomial.monomial(oracle_config_cc(parts, n))
                for a, length, m in _strings_by_length(parts):
                    low = max(t.bound(a, length) for t in subset)
                    p = oracle_vacancy(parts, L, n, a, length)
                    term = term * qbinom(m, p - low).shift(m * low)
                result = result + sign * term
    return result


def brute_rcs(spec, weight):
    """Every admissible rigged configuration, by exhaustive filtering."""
    from kostka.rc import RiggedConfiguration

    weight = tuple(weight)
    n = spec.n
    L = oracle_multiplicities(spec)
    tableaux = bound_tableaux(weight)
    found = set()
    for parts in _configs(spec, weight):
        triples = _strings_by_length(parts)
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
