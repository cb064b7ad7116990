"""The exceptions that tell bad input and an exhausted budget from a
defect of the package, and `shown`, the one way a refusal shows a value."""

import reprlib


class InvariantError(RuntimeError):
    """An internal consistency check failed: a defect of the package,
    never a sign of bad input."""


class BudgetError(RuntimeError):
    """A computation would exceed a fixed budget, such as the cap on the
    witness tableaux that bound_tableaux lists."""


class BadInputError(ValueError):
    """A value that a reader or a checked constructor refuses: malformed
    or out-of-range input, named by its field.  The functions that refuse
    an argument's value raise it too: qbinom a negative number of parts,
    plactic's product, rmatrix and local_energy a pair of tableaux on
    two alphabets, tail_energy, path_to_rc and rc_to_path an argument
    of the wrong type, and the bijection's steps (insert_letter,
    extract_letter, peel_column_rc, merge_column_rc, peel_box_rc,
    merge_box_rc) a letter out of range or a Working state whose leading
    factors do not fit the step.  It is a ValueError, so a caller that
    catches ValueError still catches it; the CLI reads only this
    exception as bad input, so any other ValueError, like any other
    exception, is a defect."""


class _Shown(reprlib.Repr):
    """reprlib's default cut, except that an int with more digits than
    sys.get_int_max_str_digits() allows, which repr refuses with a plain
    ValueError, is described by its size."""

    def repr_int(self, x, level):
        try:
            return super().repr_int(x, level)
        except ValueError:
            return f'<{"negative " if x < 0 else ""}int of {x.bit_length()} bits>'


# The value in a refusal's message: reprlib.repr's text, cut to a few dozen
# characters, for any value, an int too long to print included.
shown = _Shown().repr
