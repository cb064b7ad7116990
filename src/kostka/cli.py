"""Command line front end.

Subcommands: `paths` and `rcs` list the two sides of the
correspondence for a spec file, `poly` computes the graded counting
polynomial by up to three methods (only `paths` shares no code with the
other two), `map` converts a single element across the correspondence,
`op` applies a raising or lowering operator to either kind of element,
and `check` drives the randomized and exhaustive property suite.  `poly`
and `check` build each weight's configurations once
(`rc.configuration_list`); the rc-side listing and both rc-side
polynomials read that one list.  `paths` prints the energies that
`paths.enumerate_paths` sums as it lists; only `check` calls
`tail_energy`, path by path, as the reference for the `paths` method.

Exit codes: 0 on success, 1 when a property or cross-method check
fails or an internal invariant breaks (reported as `internal error`),
2 on bad input, which includes every value that the readers
(`from_json`, `check_weight`, `json_index`) refuse with a BadInputError
naming its field.  No other exception is read as bad input, so outside
`check` a TypeError, KeyError or plain ValueError raised by a defect
ends the command with a traceback.  `check` reports any exception inside
one spec's checks as that spec's internal error and goes on.  No
subcommand builds the witness-tableau set, so none takes a budget for it.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from collections import Counter

from . import rccrystal
from .bijection import Working, extract_letter, insert_letter, path_to_rc, rc_to_path
from .crystal import (CrystalSpec, Path, check_weight, depth_first, json_field, json_index,
                      json_ints, json_list)
from .errors import BadInputError, InvariantError
from .paths import enumerate_all_paths, enumerate_paths, path_polynomial
from .plactic import tail_energy
from .qpoly import QPolynomial
from .rc import (RiggedConfiguration, _admissible, _fermionic_polynomial_from,
                 _rc_polynomial_from, _rcs_from, configuration_list, enumerate_rcs)

OK = 0
PROPERTY_FAILURE = 1
INPUT_ERROR = 2


# The graded counting polynomial of a spec and weight by each method, in
# the order `poly` prints them; `check` compares every one at every weight.
# configs is the weight's configuration_list, which `paths` never calls.
METHODS = {'paths': lambda spec, weight, configs: path_polynomial(spec, weight),
           'rc-enum': lambda spec, weight, configs: _rc_polynomial_from(configs()),
           'fermionic': lambda spec, weight, configs: _fermionic_polynomial_from(configs())}


class InputError(Exception):
    """Malformed file, spec, or element."""


def _load(path: str):
    # int refuses a digit string past the interpreter's limit with a plain
    # ValueError, so a longer one is refused here, by its length, as bad
    # input; a limit of 0, or none, means no limit.
    limit = sys.get_int_max_str_digits() if hasattr(sys, 'get_int_max_str_digits') else 0

    def parse_int(text: str) -> int:
        digits = len(text) - text.startswith('-')
        if limit and digits > limit:
            raise InputError(f'{path} holds an integer of {digits} digits, '
                             f'more than the limit of {limit}')
        return int(text)

    try:
        with open(path, encoding='utf-8') as fh:   # JSON text is UTF-8 (RFC 8259, 8.1)
            return json.load(fh, parse_int=parse_int)
    except OSError as exc:
        raise InputError(f'cannot read {path}: {exc}')
    # RecursionError: too deeply nested for json.load.
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise InputError(f'{path} is not valid JSON: {exc}')


def _spec_and_weight(data) -> tuple[CrystalSpec, tuple[int, ...]]:
    if not isinstance(data, dict):
        raise InputError('spec must be a JSON object')
    try:
        spec = CrystalSpec.from_json(data)
        weight = json_list(json_ints(json_field(data, 'weight')), 'weight')
    except BadInputError as exc:
        raise InputError(f'bad spec: {exc}')
    try:
        return spec, check_weight(spec, weight)
    except BadInputError as exc:
        raise InputError(str(exc)) from None


def _parse_element(data):
    """A path or an admissible rigged configuration, told apart by its fields."""
    if not isinstance(data, dict):
        raise InputError('element must be a JSON object')
    if 'tableaux' not in data and 'nu' not in data:
        raise InputError("element needs a 'tableaux' or 'nu' field")
    try:
        element = (Path if 'tableaux' in data else RiggedConfiguration).from_json(data)
    except BadInputError as exc:
        raise InputError(f'bad element: {exc}')
    if isinstance(element, RiggedConfiguration) and not element.is_admissible():
        raise InputError('configuration is not admissible')
    return element


def _poly_json(poly: QPolynomial) -> dict:
    min_exponent, coefficients = poly.to_list()
    return {'min_exponent': min_exponent, 'coefficients': coefficients}


def cmd_paths(args) -> int:
    spec, weight = _spec_and_weight(_load(args.spec))
    _emit_listing(args.format, 'path', 'energy', 'D', enumerate_paths(spec, weight))
    return OK


def cmd_rcs(args) -> int:
    spec, weight = _spec_and_weight(_load(args.spec))
    _emit_listing(args.format, 'rc', 'cocharge', 'cc',
                  ((rc, rc.cocharge()) for rc in enumerate_rcs(spec, weight)))
    return OK


def cmd_poly(args) -> int:
    spec, weight = _spec_and_weight(_load(args.spec))
    names = list(METHODS) if args.method == 'all' else [args.method]
    configs = configuration_list(spec, weight)
    values = {name: METHODS[name](spec, weight, configs) for name in names}
    if args.format == 'json':
        print(json.dumps({'polynomials':
                          {name: _poly_json(values[name]) for name in names}}))
    else:
        for name in names:
            print(f'{name}: {values[name]}')
    if len(set(values.values())) > 1:
        detail = '; '.join(f'{name}={values[name]}' for name in names)
        print(f'mismatch for spec {json.dumps(spec.to_json())} '
              f'weight {list(weight)}: {detail}', file=sys.stderr)
        return PROPERTY_FAILURE
    return OK


def _emit_element(element, fmt: str) -> None:
    if element is None:
        print('null' if fmt == 'json' else '(undefined)')
    elif fmt == 'json':
        print(json.dumps(element.to_json()))
    else:
        print(element)


def _emit_listing(fmt: str, kind: str, stat: str, short: str, pairs) -> None:
    """(element, statistic) pairs, as JSON under kind and stat or as text.
    The JSON document is written one element at a time, byte for byte as
    json.dumps writes the whole of it, so no document is held."""
    if fmt == 'json':
        out = sys.stdout
        out.write('{"elements": [')
        for k, (element, value) in enumerate(pairs):
            out.write((', ' if k else '') + json.dumps({kind: element.to_json(), stat: value}))
        out.write(']}\n')
    else:
        for element, value in pairs:
            print(f'{element}  {short}={value}')


def cmd_map(args) -> int:
    element = _parse_element(_load(args.spec))
    if args.direction == 'phi':
        if not isinstance(element, Path):
            raise InputError('phi expects a path element')
        result = path_to_rc(element)
    else:
        if not isinstance(element, RiggedConfiguration):
            raise InputError('phi-inv expects a rigged configuration element')
        result = rc_to_path(element)
    _emit_element(result, args.format)
    return OK


def cmd_op(args) -> int:
    element = _parse_element(_load(args.spec))
    try:
        a = json_index(args.residue, element.spec.n - 1, 'operator index')
    except BadInputError as exc:
        raise InputError(str(exc)) from None
    if isinstance(element, Path):
        result = element.f(a) if args.operator == 'f' else element.e(a)
    else:
        result = (rccrystal.f if args.operator == 'f' else rccrystal.e)(element, a)
    _emit_element(result, args.format)
    return OK


# ---------------------------------------------------------------------------
# property checker
# ---------------------------------------------------------------------------

def _compositions(total: int, parts: int):
    """The compositions of total into parts parts, in decreasing lexicographic order."""
    def step(k, state):
        firsts = range(state[1], -1, -1) if k < parts - 1 else (state[1],)
        return [(first, state[1] - first) for first in firsts]

    for branch in depth_first((None, total), parts, step):
        yield tuple([first for first, _left in branch])


def random_spec(rng: random.Random, max_n: int, max_boxes: int) -> CrystalSpec:
    n = rng.randint(2, max_n)
    factors: list[tuple[int, int]] = []
    budget = max_boxes
    while True:
        options = [(r, s) for r in range(1, n) for s in range(1, budget + 1)
                   if r * s <= budget]
        if not options or rng.random() < 0.25:
            break
        choice = rng.choice(options)
        factors.append(choice)
        budget -= choice[0] * choice[1]
    return CrystalSpec(n, tuple(factors))


def sweep_specs(max_n: int, box_cap: int) -> list[CrystalSpec]:
    """Every factor sequence with at most box_cap boxes, every n.

    Per n, one depth_first branch of box_cap levels per sequence.  A
    state is the shape it appends, None where the sequence ends, and the
    boxes left.  A level first ends the sequence, leaving no boxes, so
    an ended sequence stays ended, then appends each shape that fits, in
    turn.  So a sequence comes before its extensions, and those in the
    order of their next shape: the preorder of the factor sequences,
    each once.
    """
    out: list[CrystalSpec] = []
    for n in range(2, max_n + 1):
        shapes = [(r, s) for r in range(1, n) for s in range(1, box_cap + 1)
                  if r * s <= box_cap]

        def step(_d, state):
            left = state[1]
            return [(None, 0)] + [((r, s), left - r * s) for r, s in shapes if r * s <= left]

        for branch in depth_first(((), box_cap), box_cap, step):
            out.append(CrystalSpec(n, tuple([shape for shape, _left in branch if shape])))
    return out


def _sorted_strings(work: Working) -> list[list[tuple[int, int]]]:
    """The (length, rigging) strings of each component of a state, sorted."""
    return [sorted(zip(ls, xs)) for ls, xs in zip(work.lengths, work.riggings)]


def check_spec(spec: CrystalSpec) -> str | None:
    """Cross-check one spec, each fact once; None means all hold.

    phi-inverse undoing phi makes phi injective.  f and e commuting with
    phi, with phi_a and epsilon_a equal across it, also fix how often f
    and e apply.  Each path is recorded once, as its image, and under its
    weight as the pair (image, tail energy).  The per-weight image check
    runs first, so the per-path pass sees each configuration once; it
    compares the images with the weight's configurations as sets, in no
    order.  Symmetry in the weight is checked on the listed energies
    before any method is compared with them, so a fault in the energies
    alone is reported as broken symmetry.  Each weight's configurations
    are built once, into one list that the image check and the rc-side
    methods read.  The letter pass freezes no configuration: it tests the
    state after each insertion with rc._admissible, the package's one
    admissibility rule, on the Working lists as they stand, and compares
    the state after each extraction with rc by its restored lists
    (factors, weight and each component's strings, sorted)."""
    n = spec.n
    images: dict[Path, RiggedConfiguration] = {}
    by_weight: dict[tuple[int, ...], list[tuple[RiggedConfiguration, int]]] = {}
    for p in enumerate_all_paths(spec):
        rc = images[p] = path_to_rc(p)
        if rc_to_path(rc) != p:
            return f'inverse map failed on {p}'
        energy = tail_energy(p)
        if energy != rc.cocharge():
            return f'energy {energy} != cocharge {rc.cocharge()} on {p}'
        by_weight.setdefault(p.weight(), []).append((rc, energy))

    class_poly: dict[tuple[int, ...], tuple[tuple[int, ...], QPolynomial]] = {}
    for weight in _compositions(spec.total_boxes(), n):
        group = by_weight.get(weight, [])
        configs = configuration_list(spec, weight)
        rcs = _rcs_from(spec, weight, configs())
        if len(rcs) != len(group) or {rc for rc, _energy in group} != set(rcs):
            return f'image mismatch at weight {weight}'
        x = QPolynomial(Counter(energy for _rc, energy in group))
        other_weight, other = class_poly.setdefault(tuple(sorted(weight)), (weight, x))
        if other != x:
            return f'symmetry broken between weights {other_weight} and {weight}'
        polys = {name: method(spec, weight, configs) for name, method in METHODS.items()}
        if any(poly != x for poly in polys.values()):
            detail = ', '.join(f'{name}={poly}' for name, poly in polys.items())
            return (f'polynomials disagree at weight {weight}: '
                    f'elements={x}, {detail}')

    # Looked up per call, so wrappers installed after import are called.
    moves = (('lowering', Path.f, rccrystal.f), ('raising', Path.e, rccrystal.e))
    for p, rc in images.items():
        for a in range(1, n):
            for name, path_op, rc_op in moves:
                moved, rc_moved = path_op(p, a), rc_op(rc, a)
                if (moved is None) != (rc_moved is None):
                    return f'{name} at {a} defined on only one side of {p}'
                if moved is not None and images[moved] != rc_moved:
                    return f'{name} at {a} does not commute on {p}'
            if p.phi(a) != rccrystal.phi(rc, a):
                return f'phi at {a} disagrees across the map on {p}'
            if p.epsilon(a) != rccrystal.epsilon(rc, a):
                return f'epsilon at {a} disagrees across the map on {p}'
        # A round trip that passes leaves the state equal to rc, so one
        # state serves every letter.
        work = Working(rc)
        start = work.factors[:], work.weight[:], _sorted_strings(work)
        for letter in range(1, n + 1):
            insert_letter(work, letter)
            if not _admissible(work.factors, work.weight, work.lengths,
                               map(zip, work.lengths[1:-1], work.riggings[1:-1])):
                return f'insertion of {letter} left {rc} inadmissible'
            if (extract_letter(work) != letter
                    or (work.factors, work.weight, _sorted_strings(work)) != start):
                return f'insert/extract roundtrip failed on {rc} with {letter}'
    return None


def cmd_check(args) -> int:
    if args.max_boxes < 1 or args.max_n < 2 or args.count < 0:
        raise InputError('check needs --max-boxes >= 1, --max-n >= 2 and --count >= 0')
    rng = random.Random(args.seed)
    instances = [random_spec(rng, args.max_n, args.max_boxes)
                 for _ in range(args.count)]
    if args.count > 0:
        instances += sweep_specs(args.max_n, min(4, args.max_boxes))
    rows = []
    failures = 0
    for idx, spec in enumerate(instances):
        try:
            detail = check_spec(spec)
        except Exception as exc:
            kind = '' if isinstance(exc, InvariantError) else f'{type(exc).__name__}: '
            detail = f'internal error: {kind}{exc}'
        if detail is not None:
            failures += 1
        rows.append((idx, spec.to_json(), detail))
    if args.format == 'json':
        print(json.dumps({'failures': failures, 'instances': [
            {'id': idx, **fields,
             'status': 'fail' if detail else 'ok',
             **({'detail': detail} if detail else {})}
            for idx, fields, detail in rows]}))
    else:
        for idx, fields, detail in rows:
            status = f'FAIL: {detail}' if detail else 'ok'
            print(f"[{idx}] n={fields['n']} factors={json.dumps(fields['factors'])} {status}")
        verdict = f'{failures} failures' if failures else 'all properties hold'
        print(f'checked {len(rows)} specs: {verdict}')
    return PROPERTY_FAILURE if failures else OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog='kostka',
        description='Graded path counting and rigged configurations, '
                    'with the correspondence between them.')
    sub = parser.add_subparsers(dest='command', required=True)

    def add_common(p, default_format='text', spec_help='spec JSON file'):
        p.add_argument('--spec', required=True, metavar='FILE', help=spec_help)
        p.add_argument('--format', choices=['json', 'text'],
                       default=default_format)

    p = sub.add_parser('paths', help='list the paths of a weight with energies')
    add_common(p)
    p.set_defaults(func=cmd_paths)

    p = sub.add_parser('rcs', help='list the rigged configurations of a weight '
                                   'with cocharges')
    add_common(p)
    p.set_defaults(func=cmd_rcs)

    p = sub.add_parser('poly', help='compute the graded counting polynomial')
    add_common(p)
    p.add_argument('--method', choices=[*METHODS, 'all'], default='all')
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser('map', help='convert one element across the correspondence')
    p.add_argument('direction', choices=['phi', 'phi-inv'])
    add_common(p, default_format='json', spec_help='element JSON file')
    p.set_defaults(func=cmd_map)

    p = sub.add_parser('op', help='apply a crystal operator to an element')
    p.add_argument('operator', choices=['f', 'e'])
    p.add_argument('residue', type=int)
    add_common(p, default_format='json', spec_help='element JSON file')
    p.set_defaults(func=cmd_op)

    p = sub.add_parser('check', help='run the property suite on generated specs')
    p.add_argument('--max-boxes', type=int, default=6, metavar='N')
    p.add_argument('--max-n', type=int, default=4, metavar='N')
    p.add_argument('--seed', type=int, default=0, metavar='N')
    p.add_argument('--count', type=int, default=50, metavar='N',
                   help='number of random specs (0 checks nothing)')
    p.add_argument('--format', choices=['json', 'text'], default='text')
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f'error: {exc}', file=sys.stderr)
        return INPUT_ERROR
    except InvariantError as exc:
        print(f'internal error: {exc}', file=sys.stderr)
        return PROPERTY_FAILURE


if __name__ == '__main__':
    raise SystemExit(main())
