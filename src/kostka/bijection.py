"""Bijection between highest-weight-free tensor paths and rigged
configurations.

The path-to-configuration direction peels the leftmost factor one box
at a time: a width-s factor splits into its leftmost column and the
rest, then a height-r column splits into its bottom box and the rest.
A single box of value x corresponds to box insertion (`insert_letter`)
on the configuration side.  Both directions are implemented
iteratively; the defining recursion is exercised in the tests.

All selection rules measure singularity (rigging equal to vacancy
number) in the configuration as it is *before* the step; freshly
changed strings are re-rigged against the configuration *after* the
step, while untouched strings keep their riggings verbatim.
"""

from __future__ import annotations

from .crystal import CrystalSpec, Path, RectTableau
from .errors import InvariantError
from .rc import RiggedConfiguration, empty_rc, spec_vacancy


# ---------------------------------------------------------------------------
# splitting tensor factors on the path side
# ---------------------------------------------------------------------------

def pop_letter(path: Path) -> tuple[int, Path]:
    """Remove a leading single-box factor, returning its value."""
    if not path.spec.factors or path.spec.factors[0] != (1, 1):
        raise ValueError('leftmost factor must be a single box')
    letter = path.tableaux[0].rows[0][0]
    rest = CrystalSpec(path.spec.n, path.spec.factors[1:])
    return letter, Path(rest, path.tableaux[1:])


def peel_column(path: Path) -> Path:
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


def peel_box(path: Path) -> Path:
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


# ---------------------------------------------------------------------------
# box removal and insertion on the configuration side
# ---------------------------------------------------------------------------

def extract_letter(rc: RiggedConfiguration) -> tuple[RiggedConfiguration, int]:
    """Remove a leading single-box factor from the configuration.

    Walks components 1, 2, ... picking at each the shortest singular
    string no shorter than the previous pick; the walk stops at the
    first component with no candidate, and the stopping point is the
    returned letter (n if every component yields one).  Each picked
    string loses a box and is re-rigged to stay singular; length-zero
    strings vanish.
    """
    spec = rc.spec
    if not spec.factors or spec.factors[0] != (1, 1):
        raise ValueError('leftmost factor must be a single box')
    n = rc.n
    parts = rc.partitions
    chosen: list[int] = []
    floor = 1
    rank = n
    for a in range(1, n):
        comp = rc.strings[a - 1]
        candidates = [(l, idx) for idx, (l, x) in enumerate(comp)
                      if l >= floor and x == spec_vacancy(spec, parts, a, l)]
        if not candidates:
            rank = a
            break
        floor, idx = min(candidates)
        chosen.append(idx)

    new_spec = CrystalSpec(n, spec.factors[1:])
    new_weight = list(rc.weight)
    new_weight[rank - 1] -= 1
    working = [list(comp) for comp in rc.strings]
    resing: list[tuple[int, int]] = []
    for a_idx, idx in enumerate(chosen):
        length, _ = working[a_idx].pop(idx)
        if length - 1 >= 1:
            working[a_idx].append((length - 1, 0))
            resing.append((a_idx, len(working[a_idx]) - 1))
    new_parts = tuple(tuple(l for l, _ in comp) for comp in working)
    for a_idx, pos in resing:
        length = working[a_idx][pos][0]
        working[a_idx][pos] = (length,
                               spec_vacancy(new_spec, new_parts, a_idx + 1, length))
    out = RiggedConfiguration(new_spec, tuple(new_weight),
                              tuple(tuple(comp) for comp in working))
    return out, rank


def insert_letter(rc: RiggedConfiguration, letter: int) -> RiggedConfiguration:
    """Prepend a single-box factor of the given value.

    Inverse of extract_letter: walking components letter-1 down to 1,
    grow the longest singular string not longer than the previous
    pick (growing a fresh length-zero string when none qualifies).
    Grown strings are re-rigged to be singular in the result.
    """
    n = rc.n
    if not 1 <= letter <= n:
        raise ValueError(f'letter {letter} outside 1..{n}')
    parts = rc.partitions
    working = [list(comp) for comp in rc.strings]
    grown: list[tuple[int, int]] = []
    ceiling = None
    for a in range(letter - 1, 0, -1):
        comp = rc.strings[a - 1]
        best = None
        for idx, (l, x) in enumerate(comp):
            if ceiling is not None and l > ceiling:
                continue
            if x == spec_vacancy(rc.spec, parts, a, l) and \
                    (best is None or l > best[0]):
                best = (l, idx)
        if best is None:
            ceiling = 0
            working[a - 1].append((1, 0))
            grown.append((a - 1, len(working[a - 1]) - 1))
        else:
            ceiling, idx = best
            working[a - 1][idx] = (ceiling + 1, 0)
            grown.append((a - 1, idx))

    new_spec = CrystalSpec(n, ((1, 1),) + rc.spec.factors)
    new_weight = list(rc.weight)
    new_weight[letter - 1] += 1
    new_parts = tuple(tuple(l for l, _ in comp) for comp in working)
    for a_idx, pos in grown:
        length = working[a_idx][pos][0]
        working[a_idx][pos] = (length,
                               spec_vacancy(new_spec, new_parts, a_idx + 1, length))
    return RiggedConfiguration(new_spec, tuple(new_weight),
                               tuple(tuple(comp) for comp in working))


# ---------------------------------------------------------------------------
# column and box splits on the configuration side
# ---------------------------------------------------------------------------

def peel_column_rc(rc: RiggedConfiguration) -> RiggedConfiguration:
    """Split the leftmost factor (r, s) into (r, 1), (r, s-1).

    Strings are untouched; vacancy numbers of component r rise by one
    for lengths below s, so admissibility is preserved.
    """
    if not rc.spec.factors:
        raise ValueError('no factors to split')
    r, s = rc.spec.factors[0]
    if s < 2:
        raise ValueError('leftmost factor must have width at least 2')
    spec = CrystalSpec(rc.n, ((r, 1), (r, s - 1)) + rc.spec.factors[1:])
    return RiggedConfiguration(spec, rc.weight, rc.strings)


def merge_column_rc(rc: RiggedConfiguration) -> RiggedConfiguration:
    """Merge leading factors (r, 1), (r, w) into (r, w + 1).

    Requires that component r has no singular string shorter than
    w + 1; such a string would end up over-rigged after the merge.
    """
    factors = rc.spec.factors
    if len(factors) < 2 or factors[0][1] != 1 or factors[1][0] != factors[0][0]:
        raise ValueError('leading factors must be (r, 1), (r, w)')
    r = factors[0][0]
    w = factors[1][1]
    parts = rc.partitions
    for l, x in rc.strings[r - 1]:
        if l < w + 1 and x == spec_vacancy(rc.spec, parts, r, l):
            raise InvariantError(
                f'cannot merge: singular string of length {l} in component {r}')
    spec = CrystalSpec(rc.n, ((r, w + 1),) + factors[2:])
    return RiggedConfiguration(spec, rc.weight, rc.strings)


def peel_box_rc(rc: RiggedConfiguration) -> RiggedConfiguration:
    """Split the leftmost factor (r, 1) into (1, 1), (r - 1, 1).

    Adds a singular string of length one to components 1..r-1; every
    vacancy number is unchanged by the combined move.
    """
    if not rc.spec.factors:
        raise ValueError('no factors to split')
    r, s = rc.spec.factors[0]
    if s != 1 or r < 2:
        raise ValueError('leftmost factor must be a column of height at least 2')
    parts = rc.partitions
    riggings = [spec_vacancy(rc.spec, parts, a, 1) for a in range(1, r)]
    working = [list(comp) for comp in rc.strings]
    for a in range(1, r):
        working[a - 1].append((1, riggings[a - 1]))
    spec = CrystalSpec(rc.n, ((1, 1), (r - 1, 1)) + rc.spec.factors[1:])
    out = RiggedConfiguration(spec, rc.weight,
                              tuple(tuple(comp) for comp in working))
    if any(out.vacancy(a, 1) != riggings[a - 1] for a in range(1, r)):
        raise InvariantError(f'splitting a box moved a length-1 vacancy of {rc}')
    return out


def merge_box_rc(rc: RiggedConfiguration) -> RiggedConfiguration:
    """Merge leading factors (1, 1), (r, 1) into (r + 1, 1).

    Removes one singular string of length one from each of components
    1..r; the strings must be present.
    """
    factors = rc.spec.factors
    if len(factors) < 2 or factors[0] != (1, 1) or factors[1][1] != 1:
        raise ValueError('leading factors must be (1, 1), (r, 1)')
    r = factors[1][0]
    parts = rc.partitions
    working = [list(comp) for comp in rc.strings]
    for a in range(1, r + 1):
        target = (1, spec_vacancy(rc.spec, parts, a, 1))
        if target not in working[a - 1]:
            raise InvariantError(
                f'cannot merge: no singular length-1 string in component {a}')
        working[a - 1].remove(target)
    spec = CrystalSpec(rc.n, ((r + 1, 1),) + factors[2:])
    return RiggedConfiguration(spec, rc.weight,
                               tuple(tuple(comp) for comp in working))


# ---------------------------------------------------------------------------
# the full correspondence, both ways
# ---------------------------------------------------------------------------

def path_to_rc(path: Path) -> RiggedConfiguration:
    """Map a tensor path to its rigged configuration.

    Factors are consumed right to left; within a factor, columns right
    to left; within a column, entries top to bottom.  Each entry is
    inserted as a letter, each completed entry beyond the first is
    fused into the growing column, and each completed column beyond
    the first is fused into the growing factor.
    """
    rc = empty_rc(path.spec.n)
    for t in reversed(path.tableaux):
        r, s = t.shape
        for c in range(s - 1, -1, -1):
            column = t.column(c)
            rc = insert_letter(rc, column[0])
            for j in range(1, r):
                rc = insert_letter(rc, column[j])
                rc = merge_box_rc(rc)
            if c < s - 1:
                rc = merge_column_rc(rc)
    if rc.spec != path.spec or rc.weight != path.weight():
        raise InvariantError(f'image of {path} has the wrong spec or weight')
    return rc


def rc_to_path(rc: RiggedConfiguration) -> Path:
    """Map a rigged configuration back to its tensor path."""
    n = rc.n
    work = rc
    tableaux = []
    for r, s in rc.spec.factors:
        columns = []
        for w in range(s, 0, -1):
            if w >= 2:
                work = peel_column_rc(work)
            letters = []
            for j in range(r, 0, -1):
                if j >= 2:
                    work = peel_box_rc(work)
                work, letter = extract_letter(work)
                letters.append(letter)
            if any(x <= y for x, y in zip(letters, letters[1:])):
                raise InvariantError(f'extracted letters {letters} do not decrease')
            columns.append(tuple(reversed(letters)))
        rows = tuple(zip(*columns))
        tableaux.append(RectTableau(rows, n))
    if work.spec.factors or any(work.strings) or any(work.weight):
        raise InvariantError('configuration not exhausted')
    return Path(rc.spec, tuple(tableaux))
