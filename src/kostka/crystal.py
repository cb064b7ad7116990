"""Rectangular semistandard tableaux and their crystal structure.

A tableau of shape (s^r) on the alphabet {1..n} has rows weakly
increasing left to right and columns strictly increasing top to bottom.
A path is a tensor product of such tableaux, written left to right.
The operators e_i and f_i act on the row word of the whole path through
the usual bracketing rule: in the subword of letters i and i+1, every
i+1 opens a bracket and every i closes one; matched adjacent pairs
cancel, leaving a residue i^p (i+1)^q.  f_i turns the rightmost
unmatched i into i+1 and e_i turns the leftmost unmatched i+1 into i;
when the needed letter is absent the operator is undefined and None is
returned.
Every index argument (operator index, component, letter, height) is read
by json_index: a bool, a float or an int out of range is a BadInputError,
the ValueError that the readers and the checked constructors raise for a
value they refuse (`errors`).
A tableau's entries, alphabet size and a spec's fields must be ints too,
and a weight is a nonempty tuple of nonnegative ints (the empty weight
is refused).  A tableau stores its shape and its hash when it is built,
since the energy layer keys its memos and transfer-matrix states by
tableaux; its size is read from `shape` alone, and the hash is the one
the dataclass would compute, hash((rows, n)).
Input is checked at the boundaries: the constructors and `from_json`
run every check, the constructors and check_weight refuse a value of
the wrong shape (json_list) and `from_json` a missing field (json_field)
with a BadInputError naming the field, so any other exception on the way
in is a defect, never bad input.  Objects the package builds from
checked ones skip them through a `_trusted` constructor: `Path._trusted`
for enumerated and operated paths, `RectTableau._trusted` for the
tableaux that enumerate_crystal, the operators and rc_to_path build and
check themselves,
`CrystalSpec._trusted` for the specs the bijection's splits and merges
make from a checked spec's factors, and, in `rc`,
`RiggedConfiguration._trusted` and `LowerBoundTableau._trusted` for the
witness tableaux that bound_tableaux builds.  The CLI calls none of
them.  A tableau that an operator breaks is an InvariantError, checked
at the one cell it changes.
`depth_first` is the package's one backtracker: the elements of a
crystal, the partitions and configurations of `rc`, and the weights and
specs `kostka check` visits.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from operator import le, lt

from .errors import BadInputError, InvariantError, shown


def json_int(value) -> int:
    """value if it is an int; a float, a string, a bool or anything else
    where an integer belongs is a BadInputError.  Its message shows the value
    through errors.shown, so a short value reads as its repr, a long string
    or a long list is cut to a few dozen characters, and an int too long to
    print is named by its size."""
    if type(value) is int:
        return value
    raise BadInputError(f'expected an integer, got {shown(value)}')


def json_index(value, top: int, noun: str) -> int:
    """value if it is an int (read by json_int) in 1..top, else BadInputError,
    whose message shows value and top through errors.shown, as json_int
    does."""
    if not 1 <= json_int(value) <= top:
        raise BadInputError(f'{noun} {shown(value)} outside 1..{shown(top)}')
    return value


def json_ints(value):
    """An int, or nested tuples of ints from nested lists or tuples, each
    int read by json_int."""
    if isinstance(value, (list, tuple)):
        return tuple(map(json_ints, value))
    return json_int(value)


def json_field(data, key: str):
    """data[key], or a BadInputError naming the missing field."""
    if key not in data:
        raise BadInputError(f"missing field '{key}'")
    return data[key]


def json_list(value, noun: str, item: str | None = None):
    """value if it is a list or a tuple, and, when item names its entries,
    each of them a list or tuple of two; any other shape is a BadInputError
    naming noun or item."""
    if not isinstance(value, (list, tuple)):
        raise BadInputError(f'{noun} must be a list')
    if item is not None and any(not isinstance(x, (list, tuple)) or len(x) != 2
                                for x in value):
        raise BadInputError(f'each {item} must be a pair')
    return value


def check_weight_entries(weight) -> tuple[int, ...]:
    """The weight as a tuple of nonnegative ints, of any length but 0, or
    BadInputError."""
    weight = tuple(json_list(weight, 'weight'))
    if not weight:
        raise BadInputError('weight must have at least one entry')
    if any(type(x) is not int for x in weight):
        raise BadInputError('weight entries must be integers')
    if any(x < 0 for x in weight):
        raise BadInputError('weight entries must be nonnegative')
    return weight


@dataclass(frozen=True)
class RectTableau:
    """A column-strict rectangular tableau over {1..n}.

    Construction also stores `shape`, the pair (rows, columns), and the
    hash, so neither is recomputed when the tableau is read or looked up.
    """

    rows: tuple[tuple[int, ...], ...]
    n: int

    def __post_init__(self):
        rows = tuple(tuple(json_list(row, 'tableau row'))
                     for row in json_list(self.rows, 'tableau'))
        object.__setattr__(self, 'rows', rows)
        n = json_int(self.n)
        if not rows:
            raise BadInputError('tableau needs at least one row')
        s = len(rows[0])
        if any(len(row) != s for row in rows):
            raise BadInputError('rows must all have the same length')
        if s == 0:
            raise BadInputError('tableau needs at least one column')
        for row in rows:
            for x in row:
                if type(x) is not int or not 1 <= x <= n:
                    json_int(x)     # a non-int entry gets json_int's message
                    raise BadInputError(f'entry {shown(x)} outside alphabet 1..{shown(n)}')
            if not all(map(le, row, row[1:])):
                raise BadInputError('rows must weakly increase')
        for upper, lower in zip(rows, rows[1:]):
            if not all(map(lt, upper, lower)):
                raise BadInputError('columns must strictly increase')
        object.__setattr__(self, 'shape', (len(rows), s))
        object.__setattr__(self, '_hash', hash((rows, n)))

    @classmethod
    def _trusted(cls, rows: tuple, n: int) -> 'RectTableau':
        """A tableau from a nonempty tuple of equal-length, nonempty row
        tuples over 1..n whose rows and columns the caller has checked,
        built without re-running the checks; shape and hash are stored as
        the constructor stores them."""
        t = object.__new__(cls)
        object.__setattr__(t, 'rows', rows)
        object.__setattr__(t, 'n', n)
        object.__setattr__(t, 'shape', (len(rows), len(rows[0])))
        object.__setattr__(t, '_hash', hash((rows, n)))
        return t

    def __hash__(self):
        return self._hash

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.rows)

    def word(self) -> tuple[int, ...]:
        """Row word: bottom row first, each row left to right."""
        out = []
        for row in reversed(self.rows):
            out.extend(row)
        return tuple(out)

    def weight(self) -> tuple[int, ...]:
        w = [0] * self.n
        for row in self.rows:
            for x in row:
                w[x - 1] += 1
        return tuple(w)

    def to_json(self) -> list[list[int]]:
        return [list(row) for row in self.rows]

    @classmethod
    def from_json(cls, data, n: int) -> 'RectTableau':
        return cls(json_ints(data), n)

    def __str__(self):
        return '/'.join(''.join(str(x) for x in row) for row in self.rows)


@dataclass(frozen=True)
class CrystalSpec:
    """A tensor product of rectangle crystals, factors listed left to right."""

    n: int
    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        factors = tuple((r, s) for r, s in json_list(self.factors, 'factors', 'factor'))
        object.__setattr__(self, 'factors', factors)
        if json_int(self.n) < 2:
            raise BadInputError('alphabet size must be at least 2')
        for r, s in factors:
            json_index(r, self.n - 1, 'factor height')
            if json_int(s) < 1:
                raise BadInputError(f'factor width {shown(s)} must be positive')

    @classmethod
    def _trusted(cls, n: int, factors: tuple) -> 'CrystalSpec':
        """A spec built without re-running the checks, from a checked
        spec's alphabet size and a tuple of (height, width) tuples that the
        bijection's splits and merges made from its factors."""
        spec = object.__new__(cls)
        object.__setattr__(spec, 'n', n)
        object.__setattr__(spec, 'factors', factors)
        return spec

    def total_boxes(self) -> int:
        return sum(r * s for r, s in self.factors)

    def to_json(self) -> dict:
        return {'n': self.n, 'factors': [list(f) for f in self.factors]}

    @classmethod
    def from_json(cls, data) -> 'CrystalSpec':
        return cls(json_ints(json_field(data, 'n')), json_ints(json_field(data, 'factors')))


def check_weight(spec, weight) -> tuple[int, ...]:
    """The weight as a tuple of spec.n nonnegative ints, or BadInputError;
    a spec that is not a CrystalSpec is refused first.  Every function
    that takes a spec and a weight checks them here.  The message shows n
    through errors.shown, as json_int shows a value, so a long n is cut
    to a few dozen characters."""
    if not isinstance(spec, CrystalSpec):
        raise BadInputError('spec must be a CrystalSpec')
    weight = tuple(json_list(weight, 'weight'))
    if len(weight) != spec.n:
        raise BadInputError(f'weight must have length {shown(spec.n)}')
    return check_weight_entries(weight)


@dataclass(frozen=True)
class Path:
    """An element of a tensor product of rectangle crystals."""

    spec: CrystalSpec
    tableaux: tuple[RectTableau, ...]

    def __post_init__(self):
        if not isinstance(self.spec, CrystalSpec):
            raise BadInputError('spec must be a CrystalSpec')
        tableaux = tuple(json_list(self.tableaux, 'tableaux'))
        object.__setattr__(self, 'tableaux', tableaux)
        if len(tableaux) != len(self.spec.factors):
            raise BadInputError('one tableau per factor required')
        for t, (r, s) in zip(tableaux, self.spec.factors):
            if not isinstance(t, RectTableau):
                raise BadInputError('each tableau must be a RectTableau')
            if t.shape != (r, s):
                raise BadInputError(f'tableau shape {t.shape} does not match factor '
                                    f'({r},{shown(s)})')
            if t.n != self.spec.n:
                raise BadInputError('tableau alphabet does not match spec')

    @classmethod
    def _trusted(cls, spec: CrystalSpec, tableaux: tuple) -> 'Path':
        """A path from a tuple of crystal elements, one of each factor's
        shape on the spec's alphabet, built without re-running the checks."""
        path = object.__new__(cls)
        object.__setattr__(path, 'spec', spec)
        object.__setattr__(path, 'tableaux', tableaux)
        return path

    def word(self) -> tuple[int, ...]:
        out = []
        for t in self.tableaux:
            out.extend(t.word())
        return tuple(out)

    def weight(self) -> tuple[int, ...]:
        w = [0] * self.spec.n
        for t in self.tableaux:
            for wi, x in enumerate(t.weight()):
                w[wi] += x
        return tuple(w)

    def f(self, i: int) -> 'Path | None':
        return _apply(self, i, lowering=True)

    def e(self, i: int) -> 'Path | None':
        return _apply(self, i, lowering=False)

    def phi(self, i: int) -> int:
        """Number of times f applies before hitting None."""
        return len(_bracket(self, i)[0])

    def epsilon(self, i: int) -> int:
        """Number of times e applies before hitting None."""
        return len(_bracket(self, i)[1])

    def to_json(self) -> dict:
        return {**self.spec.to_json(), 'tableaux': [t.to_json() for t in self.tableaux]}

    @classmethod
    def from_json(cls, data) -> 'Path':
        spec = CrystalSpec.from_json(data)
        tabs = tuple(RectTableau.from_json(t, spec.n)
                     for t in json_list(json_field(data, 'tableaux'), 'tableaux'))
        return cls(spec, tabs)

    def __str__(self):
        return ' (x) '.join(str(t) for t in self.tableaux) if self.tableaux else '(empty)'


def _bracket(path: Path, i: int):
    """Unmatched positions for letter i (closers) and i+1 (openers).

    Brackets the row word of the path (path.word(): each tableau's rows,
    bottom row first, left to right), read in place with a running
    position, and returns the two lists of unmatched positions in it,
    (unmatched_i, unmatched_i1), each in word order.
    """
    json_index(i, path.spec.n - 1, 'operator index')
    i1 = i + 1
    unmatched_i: list[int] = []
    open_stack: list[int] = []
    pos = 0
    for t in path.tableaux:
        for row in reversed(t.rows):
            for letter in row:
                if letter == i1:
                    open_stack.append(pos)
                elif letter == i:
                    if open_stack:
                        open_stack.pop()
                    else:
                        unmatched_i.append(pos)
                pos += 1
    return unmatched_i, open_stack


def _apply(path: Path, i: int, lowering: bool) -> Path | None:
    unmatched_i, unmatched_i1 = _bracket(path, i)
    if lowering:
        if not unmatched_i:
            return None
        pos = unmatched_i[-1]       # rightmost unmatched i
        new_letter = i + 1
    else:
        if not unmatched_i1:
            return None
        pos = unmatched_i1[0]       # leftmost unmatched i+1
        new_letter = i
    # Each factor's letters are its rows, bottom row first: find the
    # factor k holding the position, then its row and column.
    for k, t in enumerate(path.tableaux):
        r, s = t.shape
        if pos < r * s:
            break
        pos -= r * s
    ri, ci = r - 1 - pos // s, pos % s
    rows = list(t.rows)
    row = list(rows[ri])
    row[ci] = new_letter
    # The bracketing rule keeps the tableau semistandard, and only the
    # changed cell can break it: check it against its four neighbours.
    # Shape and alphabet are kept, so the path's checks hold too.
    if ((ci and row[ci - 1] > new_letter) or (ci + 1 < s and row[ci + 1] < new_letter)
            or (ri and rows[ri - 1][ci] >= new_letter)
            or (ri + 1 < r and rows[ri + 1][ci] <= new_letter)):
        raise InvariantError(f'{"f" if lowering else "e"}_{i} broke the tableau {t}')
    rows[ri] = tuple(row)
    new_t = RectTableau._trusted(tuple(rows), t.n)
    tabs = list(path.tableaux)
    tabs[k] = new_t
    return Path._trusted(path.spec, tuple(tabs))


@lru_cache(maxsize=None, typed=True)
def enumerate_crystal(r: int, s: int, n: int) -> tuple[RectTableau, ...]:
    """All column-strict r x s tableaux over {1..n}, in a fixed order.

    Each column is a strictly increasing r-subset of {1..n}, and the
    rows weakly increase exactly when each column lies entrywise at or
    above the one to its left.  One depth_first level chooses one
    column, left to right from the zero column: every r-subset at or
    above the previous column, in lexicographic order.  So the tableaux
    come in the lexicographic order of their column sequences, the order
    of the multisets of s columns, and no sequence is built that fails.
    Each column's list of successors is filled on the walk's first visit
    to it and kept for the rest of the call.  The tableaux are built with
    RectTableau._trusted, since the walk builds only column-strict ones;
    the argument checks below are the listing's one boundary.
    The cache is typed, so a float or bool height, width or alphabet
    size never hits an int's entry.
    """
    json_index(r, json_int(n), 'height')
    if json_int(s) < 1:
        raise BadInputError('width must be positive')
    columns = tuple(combinations(range(1, n + 1), r))
    above = {}

    def step(_d, left):
        if left not in above:
            above[left] = [col for col in columns if all(map(le, left, col))]
        return above[left]

    return tuple(RectTableau._trusted(tuple(zip(*cols)), n)
                 for cols in depth_first((0,) * r, s, step))


def depth_first(root, depth: int, step):
    """The branches of depth steps below root, depth first, each a fresh
    list of its states below root; step(d, state) yields, in order, the
    states one step below a state d steps down.  An explicit stack holds
    one iterator per level, so no recursion limit bounds the depth."""
    branch = [root] + [None] * depth
    levels = [iter((root,))]
    while levels:
        d = len(levels) - 1
        for state in levels[-1]:
            branch[d] = state
            if d == depth:
                yield branch[1:]
            else:
                levels.append(iter(step(d, state)))
                break
        else:
            levels.pop()
