"""Bijection between every tensor path, highest weight or not, and the
rigged configurations.

The path-to-configuration direction peels the leftmost factor one box
at a time: a width-s factor splits into its leftmost column and the
rest, then a height-r column splits into its bottom box and the rest.
A single box of value x corresponds to box insertion (`insert_letter`)
on the configuration side.  Both directions change one Working state in
place and build one RiggedConfiguration.

All selection rules measure singularity (rigging equal to vacancy
number) in the configuration as it is *before* the step; freshly
changed strings are re-rigged against the configuration *after* the
step, while untouched strings keep their riggings verbatim.  A letter
step picks each component's string in one pass over its strings,
keeping the pick so far: it reads a vacancy number (component_vacancy,
the package's one vacancy rule) only for a string whose length can
still beat the pick, and a string of the pick's own length is singular
exactly when its rigging equals the pick's, so a tie costs no vacancy
number.  Ties go to the lowest index in extraction and to the highest in
insertion.  The merges list their blocking strings with Working.singular.

Objects are checked at the boundaries.  The maps take a checked path or
configuration and refuse anything else, and what the steps build from it
skips the constructor checks: `Working.freeze` builds its spec with
`CrystalSpec._trusted` and its configuration with
`RiggedConfiguration._trusted`, and `rc_to_path` builds its tableaux and
path with `RectTableau._trusted` and `Path._trusted`.  The five public
steps are a boundary too: a Working state whose leading factors do not
fit the step (extract_letter, peel_column_rc, merge_column_rc,
peel_box_rc, merge_box_rc), like a letter out of range in insert_letter,
is a BadInputError.  Inside, a broken invariant raises InvariantError: a
merge blocked by a singular string, a split that moves a vacancy number,
`path_to_rc` comparing the image's spec and weight with the path's, and
`rc_to_path` checking that each column's letters decrease and that each
row's letters weakly increase.
"""

from __future__ import annotations

from operator import gt, le

from .crystal import CrystalSpec, Path, RectTableau, json_index
from .errors import BadInputError, InvariantError
from .rc import RiggedConfiguration, component_vacancy


# ---------------------------------------------------------------------------
# box removal and insertion on the configuration side
# ---------------------------------------------------------------------------

class Working:
    """A rigged configuration under construction: factors is a stack with
    the leading factor last, and the strings of component a are the pairs
    of lengths[a] and riggings[a], in no order.  Components 0 and n stay
    empty, so a - 1 and a + 1 always index."""

    def __init__(self, rc: RiggedConfiguration | int):
        """A copy of rc, or the empty configuration on rc letters if rc is an int."""
        if isinstance(rc, int):
            n, factors, weight, strings = rc, (), (0,) * rc, ((),) * (rc - 1)
        else:
            n, factors, weight, strings = rc.n, rc.spec.factors, rc.weight, rc.strings
        self.n = n
        self.factors = list(reversed(factors))
        self.weight = list(weight)
        self.lengths = [[], *([l for l, _ in comp] for comp in strings), []]
        self.riggings = [[], *([x for _, x in comp] for comp in strings), []]

    def vacancy(self, a: int, i: int) -> int:
        """Vacancy number of component a at length i, read off the lists."""
        return component_vacancy(self.factors, self.lengths, a, i)

    def singular(self, a: int, low, high) -> list[tuple[int, int]]:
        """(length, index) of each singular string of component a, length in
        low..high.  The merges read it, and the tests' listed letter steps
        (oracles) check the one-pass picks of extract_letter and
        insert_letter against it."""
        factors, lengths = self.factors, self.lengths
        out = []
        for idx, (l, x) in enumerate(zip(lengths[a], self.riggings[a])):
            if low <= l <= high and x == component_vacancy(factors, lengths, a, l):
                out.append((l, idx))
        return out

    def freeze(self) -> RiggedConfiguration:
        """The state as a RiggedConfiguration; the configuration puts the
        strings of each component in canonical order."""
        return RiggedConfiguration._trusted(
            CrystalSpec._trusted(self.n, tuple(reversed(self.factors))), tuple(self.weight),
            [zip(ls, xs) for ls, xs in zip(self.lengths[1:-1], self.riggings[1:-1])])


def extract_letter(work: Working) -> int:
    """Remove a leading single-box factor; return the removed letter.

    Walks components 1, 2, ... picking at each the shortest singular
    string no shorter than the previous pick, the lowest index among
    strings of that length; the walk stops at the first component with
    no candidate, and the stopping point is the returned letter (n if
    every component yields one).  Each picked string loses a box and is
    re-rigged to stay singular; length-zero strings vanish.

    One pass over each component, from its last string, keeps the pick
    so far and reads a vacancy number only for a string shorter than it
    (any string, until one is singular).  A state whose leading factor is
    not a single box is a BadInputError; a letter that does not occur in
    the weight is an InvariantError.
    """
    if not work.factors or work.factors[-1] != (1, 1):
        raise BadInputError('leftmost factor must be a single box')
    factors, lengths, riggings = work.factors, work.lengths, work.riggings
    chosen: list[tuple[int, int]] = []
    floor = 1
    for a in range(1, work.n):
        ls, xs = lengths[a], riggings[a]
        pick = None
        for idx in range(len(ls) - 1, -1, -1):
            l = ls[idx]
            if l < floor:
                continue
            if pick is None or l < best:
                v = component_vacancy(factors, lengths, a, l)
                if xs[idx] == v:
                    best, pick, vacancy = l, idx, v
            elif l == best and xs[idx] == vacancy:
                pick = idx
        if pick is None:
            break
        floor = best
        chosen.append((a, pick))
    rank = len(chosen) + 1

    if work.weight[rank - 1] == 0:
        raise InvariantError(f'extracting letter {rank}, which does not occur')
    factors.pop()
    work.weight[rank - 1] -= 1
    for a, idx in chosen:
        lengths[a][idx] -= 1
    # A string of length zero adds nothing to any vacancy number.
    for a, idx in chosen:
        if lengths[a][idx]:
            riggings[a][idx] = component_vacancy(factors, lengths, a, lengths[a][idx])
        else:
            del lengths[a][idx], riggings[a][idx]
    return rank


def insert_letter(work: Working, letter: int) -> None:
    """Prepend a single-box factor of the given value.

    Inverse of extract_letter: walking components letter-1 down to 1,
    grow the longest singular string not longer than the previous
    pick, the highest index among strings of that length (growing a
    fresh length-zero string when none qualifies).  Grown strings are
    re-rigged to be singular in the result.

    One pass over each component keeps the pick so far and reads a
    vacancy number only for a string longer than it.
    """
    json_index(letter, work.n, 'letter')
    factors, lengths, riggings = work.factors, work.lengths, work.riggings
    grown: list[tuple[int, int]] = []
    ceiling = None      # the first component walked has no previous pick
    for a in range(letter - 1, 0, -1):
        ls, xs = lengths[a], riggings[a]
        best, pick, vacancy = 0, len(ls), None
        for idx, l in enumerate(ls):
            if best <= l and (ceiling is None or l <= ceiling):
                if l > best:
                    v = component_vacancy(factors, lengths, a, l)
                    if xs[idx] == v:
                        best, pick, vacancy = l, idx, v
                elif xs[idx] == vacancy:
                    pick = idx
        ceiling = best
        grown.append((a, pick))

    factors.append((1, 1))
    work.weight[letter - 1] += 1
    for a, idx in grown:
        if idx == len(lengths[a]):
            lengths[a].append(0)
            riggings[a].append(0)
        lengths[a][idx] += 1
    for a, idx in grown:
        riggings[a][idx] = component_vacancy(factors, lengths, a, lengths[a][idx])


# ---------------------------------------------------------------------------
# column and box splits on the configuration side
# ---------------------------------------------------------------------------

def peel_column_rc(work: Working) -> None:
    """Split the leftmost factor (r, s) into (r, 1), (r, s-1).

    Strings are untouched; vacancy numbers of component r rise by one
    for lengths below s, so admissibility is preserved.  A state with no
    factor, or whose leftmost factor is a single column, is a
    BadInputError.
    """
    if not work.factors:
        raise BadInputError('no factors to split')
    r, s = work.factors[-1]
    if s < 2:
        raise BadInputError('leftmost factor must have width at least 2')
    work.factors[-1:] = [(r, s - 1), (r, 1)]


def merge_column_rc(work: Working) -> None:
    """Merge leading factors (r, 1), (r, w) into (r, w + 1).

    Requires that component r has no singular string shorter than
    w + 1; such a string would end up over-rigged after the merge, and
    is an InvariantError.  Leading factors of any other shapes are a
    BadInputError.
    """
    factors = work.factors
    if len(factors) < 2 or factors[-1][1] != 1 or factors[-2][0] != factors[-1][0]:
        raise BadInputError('leading factors must be (r, 1), (r, w)')
    r, w = factors[-2]
    if blocking := work.singular(r, 1, w):
        raise InvariantError(
            f'cannot merge: singular string of length {blocking[0][0]} in component {r}')
    work.factors[-2:] = [(r, w + 1)]


def peel_box_rc(work: Working) -> None:
    """Split the leftmost factor (r, 1) into (1, 1), (r - 1, 1).

    Adds a singular string of length one to components 1..r-1; every
    vacancy number is unchanged by the combined move, and a moved one is
    an InvariantError.  A state with no factor, or whose leftmost factor
    is not a column of height at least 2, is a BadInputError.
    """
    if not work.factors:
        raise BadInputError('no factors to split')
    r, s = work.factors[-1]
    if s != 1 or r < 2:
        raise BadInputError('leftmost factor must be a column of height at least 2')
    riggings = [work.vacancy(a, 1) for a in range(1, r)]
    work.factors[-1:] = [(r - 1, 1), (1, 1)]
    for a, x in enumerate(riggings, start=1):
        work.lengths[a].append(1)
        work.riggings[a].append(x)
    if any(work.vacancy(a, 1) != x for a, x in enumerate(riggings, start=1)):
        raise InvariantError(f'splitting a column of height {r} moved a length-1 vacancy')


def merge_box_rc(work: Working) -> None:
    """Merge leading factors (1, 1), (r, 1) into (r + 1, 1).

    Removes one singular string of length one from each of components
    1..r; a missing one is an InvariantError.  Leading factors of any
    other shapes are a BadInputError.
    """
    factors = work.factors
    if len(factors) < 2 or factors[-1] != (1, 1) or factors[-2][1] != 1:
        raise BadInputError('leading factors must be (1, 1), (r, 1)')
    r = factors[-2][0]
    found = [work.singular(a, 1, 1) for a in range(1, r + 1)]
    for a, candidates in enumerate(found, start=1):
        if not candidates:
            raise InvariantError(
                f'cannot merge: no singular length-1 string in component {a}')
        _, idx = candidates[0]
        del work.lengths[a][idx], work.riggings[a][idx]
    work.factors[-2:] = [(r + 1, 1)]


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
    if not isinstance(path, Path):
        raise BadInputError('path must be a Path')
    work = Working(path.spec.n)
    for t in reversed(path.tableaux):
        s = t.shape[1]
        for c in range(s - 1, -1, -1):
            for j, letter in enumerate(t.column(c)):
                insert_letter(work, letter)
                if j:
                    merge_box_rc(work)
            if c < s - 1:
                merge_column_rc(work)
    rc = work.freeze()
    if rc.spec != path.spec or rc.weight != path.weight():
        raise InvariantError(f'image of {path} has the wrong spec or weight')
    return rc


def rc_to_path(rc: RiggedConfiguration) -> Path:
    """Map a rigged configuration back to its tensor path."""
    # Before Working, which reads an int as an alphabet size.
    if not isinstance(rc, RiggedConfiguration):
        raise BadInputError('configuration must be a RiggedConfiguration')
    work = Working(rc)
    tableaux = []
    for r, s in rc.spec.factors:
        columns = []
        for w in range(s, 0, -1):
            if w >= 2:
                peel_column_rc(work)
            letters = []
            for j in range(r, 0, -1):
                if j >= 2:
                    peel_box_rc(work)
                letters.append(extract_letter(work))
            if not all(map(gt, letters, letters[1:])):
                raise InvariantError(f'extracted letters {letters} do not decrease')
            column = tuple(reversed(letters))
            if columns and not all(map(le, columns[-1], column)):
                raise InvariantError(f'extracted columns {columns[-1]} and {column} '
                                     'break the rows')
            columns.append(column)
        # Shape and alphabet hold by construction.
        tableaux.append(RectTableau._trusted(tuple(zip(*columns)), rc.n))
    if work.factors or any(work.lengths) or any(work.weight):
        raise InvariantError('configuration not exhausted')
    return Path._trusted(rc.spec, tuple(tableaux))
