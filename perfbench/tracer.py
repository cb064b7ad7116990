"""Per-layer tracing of the kostka package from outside it.

The tracer replaces public functions and methods of the freshly imported
package with wrappers.  A wrapper either records one span per call
(name, start, end, parent) or only counts calls and outputs.  Modules bind
imported names directly (``from .plactic import tail_energy``), so every
binding of the original object in every ``kostka`` module, and every class
attribute holding it, is replaced, not just the one in the defining module.

Spans are kept in memory and written at the end.  A layer's self time is a
span's duration minus the time its child spans cover.  Recording is on only
inside timed operations, so output checks leave no trace.  A probe whose
target no longer exists is skipped, and the metrics that depend on it are
reported as absent.
"""

from __future__ import annotations

import gzip
import sys
from array import array
from collections import Counter
from time import perf_counter_ns

LAYERS = ('qpoly', 'crystal', 'plactic', 'paths', 'rc', 'bijection',
          'rccrystal', 'cli')

# Stored spans beyond this are aggregated but not kept, so a traced run
# stays within a few tens of megabytes.
MAX_STORED_SPANS = 1_000_000

# (module, attribute path, span name or None for count-only, output hook).
# Hooks: 'len' adds len(result) to a counter, 'true' and 'defined' count
# results that are true or not None, 'yields' counts generator items,
# 'weights' collects the weight argument.
PROBES = (
    ('crystal', 'enumerate_crystal', 'crystal.enumerate_crystal', None),
    ('crystal', 'Path.f', 'crystal.path_ops', None),
    ('crystal', 'Path.e', 'crystal.path_ops', None),
    ('crystal', 'Path.phi', 'crystal.path_ops', None),
    ('crystal', 'Path.epsilon', 'crystal.path_ops', None),
    ('plactic', 'tail_energy', 'plactic.tail_energy', None),
    ('plactic', 'rmatrix', None, None),
    ('plactic', 'local_energy', None, None),
    ('paths', 'enumerate_paths', 'paths.enumerate_paths', 'len'),
    ('paths', 'enumerate_all_paths', 'paths.enumerate_paths', 'len'),
    ('paths', 'path_polynomial', 'paths.path_polynomial', None),
    ('qpoly', 'QPolynomial.__mul__', 'qpoly.mul', None),
    ('rc', 'enumerate_rcs', 'rc.enumerate_rcs', 'len'),
    ('rc', 'rc_polynomial', 'rc.rc_polynomial', None),
    ('rc', 'fermionic_polynomial', 'rc.fermionic_polynomial', None),
    ('rc', 'RiggedConfiguration.is_admissible', 'rc.is_admissible', 'true'),
    ('rc', 'enumerate_configurations', None, 'yields'),
    ('rc', 'bound_tableaux', None, 'weights'),
    ('bijection', 'path_to_rc', 'bijection.path_to_rc', None),
    ('bijection', 'rc_to_path', 'bijection.rc_to_path', None),
    ('bijection', 'insert_letter', 'bijection.letter_steps', None),
    ('bijection', 'extract_letter', 'bijection.letter_steps', None),
    ('rccrystal', 'f', 'rccrystal.ops', 'defined'),
    ('rccrystal', 'e', 'rccrystal.ops', None),
    ('rccrystal', 'phi', 'rccrystal.ops', None),
    ('rccrystal', 'epsilon', 'rccrystal.ops', None),
    ('cli', 'check_spec', 'cli.check_spec', None),
)

# Memoized tables read with cache_info(): (metric prefix, module, name).
CACHES = (
    ('rc.spec_vacancy', 'rc', 'spec_vacancy'),
    ('qpoly.qbinom', 'qpoly', 'qbinom'),
)

# Every per-layer metric: name -> (unit, probe keys it needs).  A metric is
# absent when none of its probes could be installed.
PER_LAYER = {
    'plactic.rmatrix.calls': ('count', ['plactic.rmatrix']),
    'plactic.local_energy.calls': ('count', ['plactic.local_energy']),
    'plactic.tail_energy.self_s': ('s', ['plactic.tail_energy']),
    'crystal.enumerate_crystal.self_s': ('s', ['crystal.enumerate_crystal']),
    'crystal.path_ops.calls': ('count', ['crystal.Path.f', 'crystal.Path.e',
                                         'crystal.Path.phi', 'crystal.Path.epsilon']),
    'crystal.path_ops.self_s': ('s', ['crystal.Path.f', 'crystal.Path.e',
                                      'crystal.Path.phi', 'crystal.Path.epsilon']),
    'paths.enumerate_paths.calls': ('count', ['paths.enumerate_paths',
                                              'paths.enumerate_all_paths']),
    'paths.enumerate_paths.self_s': ('s', ['paths.enumerate_paths',
                                           'paths.enumerate_all_paths']),
    'paths.paths_out': ('count', ['paths.enumerate_paths', 'paths.enumerate_all_paths']),
    'rc.fermionic_polynomial.self_s': ('s', ['rc.fermionic_polynomial']),
    'qpoly.mul.calls': ('count', ['qpoly.QPolynomial.__mul__']),
    'qpoly.mul.self_s': ('s', ['qpoly.QPolynomial.__mul__']),
    'rc.enumerate_rcs.self_s': ('s', ['rc.enumerate_rcs']),
    'rc.rcs_out': ('count', ['rc.enumerate_rcs']),
    'rc.configurations': ('count', ['rc.enumerate_configurations']),
    'rc.witness_tableaux': ('count', ['rc.bound_tableaux']),
    'rc.is_admissible.calls': ('count', ['rc.RiggedConfiguration.is_admissible']),
    'rc.is_admissible.self_s': ('s', ['rc.RiggedConfiguration.is_admissible']),
    'rc.is_admissible.true_ratio': ('ratio', ['rc.RiggedConfiguration.is_admissible']),
    'rc.spec_vacancy.entries': ('count', ['cache:rc.spec_vacancy']),
    'rc.spec_vacancy.hit_ratio': ('ratio', ['cache:rc.spec_vacancy']),
    'qpoly.qbinom.hit_ratio': ('ratio', ['cache:qpoly.qbinom']),
    'bijection.path_to_rc.self_s': ('s', ['bijection.path_to_rc']),
    'bijection.rc_to_path.self_s': ('s', ['bijection.rc_to_path']),
    'bijection.letter_steps.calls': ('count', ['bijection.insert_letter',
                                               'bijection.extract_letter']),
    'bijection.letter_steps.self_s': ('s', ['bijection.insert_letter',
                                            'bijection.extract_letter']),
    'rccrystal.ops.self_s': ('s', ['rccrystal.f', 'rccrystal.e',
                                   'rccrystal.phi', 'rccrystal.epsilon']),
    'rccrystal.f.defined_ratio': ('ratio', ['rccrystal.f']),
    'cli.check_spec.self_s': ('s', ['cli.check_spec']),
    **{f'{layer}.share': ('ratio', []) for layer in LAYERS},
    'trace.overhead_ratio': ('ratio', []),
}


def _resolve(module, path: str):
    """(owner, attribute name, object) for a dotted path, or None."""
    owner = module
    *heads, last = path.split('.')
    for head in heads:
        owner = getattr(owner, head, None)
        if owner is None:
            return None
    obj = owner.__dict__.get(last) if isinstance(owner, type) else getattr(owner, last, None)
    if obj is None:
        return None
    return owner, last, obj


class Tracer:
    """Spans and counters for one traced pass over a workload."""

    def __init__(self):
        self.enabled = False
        self.installed: set[str] = set()
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counters: Counter = Counter()
        self.weights: set[tuple[int, ...]] = set()
        self.cache_delta: dict[str, Counter] = {}
        self._caches: dict[str, object] = {}
        self._cache_before: dict[str, tuple[int, int, int]] = {}
        self._stack: list[list[int]] = []
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._next_id = 0
        self.dropped = 0
        # Columns of the stored spans: id, parent id (-1 at the root),
        # name index, start and end in perf_counter nanoseconds.
        self.spans = {key: array('q') for key in ('id', 'parent', 'name', 'start', 'end')}

    # -- installation -----------------------------------------------------

    def install(self, modules: dict) -> None:
        """Wrap every probe target found in the given kostka modules.

        modules maps short names ('rc', 'cli', ...) to module objects.
        """
        for mod_name, path, span, hook in PROBES:
            module = modules.get(mod_name)
            found = _resolve(module, path) if module is not None else None
            if found is None:
                continue
            owner, _, original = found
            wrapper = self._wrap(original, span, f'{mod_name}.{path}', hook)
            self._rebind(modules, original, wrapper)
            if isinstance(owner, type):
                for key, value in list(owner.__dict__.items()):
                    if value is original:
                        setattr(owner, key, wrapper)
            self.installed.add(f'{mod_name}.{path}')
        for prefix, mod_name, attr in CACHES:
            fn = getattr(modules.get(mod_name), attr, None)
            if callable(getattr(fn, 'cache_info', None)):
                self._caches[prefix] = fn
                self.cache_delta[prefix] = Counter()
                self.installed.add(f'cache:{prefix}')

    @staticmethod
    def _rebind(modules: dict, original, wrapper) -> None:
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

    def _wrap(self, fn, span, key, hook):
        tracer = self
        counter = f'{key}.calls'
        if hook == 'yields':
            def count_yields(*args, **kwargs):
                result = fn(*args, **kwargs)
                if not tracer.enabled:
                    return result
                tracer.calls[counter] += 1
                return tracer._counted(result, f'{key}.items')
            return count_yields

        def on_result(args, result):
            if hook == 'len':
                tracer.counters[f'{key}.out'] += len(result)
            elif hook == 'true':
                tracer.counters[f'{key}.true'] += bool(result)
            elif hook == 'defined':
                tracer.counters[f'{key}.defined'] += result is not None
            elif hook == 'weights':
                tracer.weights.add(tuple(int(x) for x in args[0]))

        if span is None:
            def count_only(*args, **kwargs):
                result = fn(*args, **kwargs)
                if tracer.enabled:
                    tracer.calls[counter] += 1
                    if hook:
                        on_result(args, result)
                return result
            return count_only

        name_id = self._name_id(span)

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][3] if stack else -1
            frame = [name_id, perf_counter_ns(), 0, tracer._next_id, parent]
            tracer._next_id += 1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - frame[1]
                tracer.self_ns[name_id] += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                tracer.calls[counter] += 1
                tracer._store(frame, end)
            if hook:
                on_result(args, result)
            return result
        return traced

    def _counted(self, iterable, counter):
        for item in iterable:
            self.counters[counter] += 1
            yield item

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _store(self, frame, end: int) -> None:
        if len(self.spans['id']) >= MAX_STORED_SPANS:
            self.dropped += 1
            return
        self.spans['id'].append(frame[3])
        self.spans['parent'].append(frame[4])
        self.spans['name'].append(frame[0])
        self.spans['start'].append(frame[1])
        self.spans['end'].append(end)

    # -- one timed operation ----------------------------------------------

    def begin_op(self):
        """Begin a root span for one timed operation; returns a token."""
        self._read_caches()
        self.enabled = True
        frame = [self._name_id('bench.op'), perf_counter_ns(), 0, self._next_id, -1]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def end_op(self, frame) -> None:
        end = perf_counter_ns()
        self._stack.pop()
        self.enabled = False
        self.self_ns[frame[0]] += end - frame[1] - frame[2]
        self._store(frame, end)
        self._read_caches(after=True)

    def _read_caches(self, after: bool = False) -> None:
        for prefix, fn in self._caches.items():
            info = fn.cache_info()
            now = (info.hits, info.misses, info.currsize)
            if after:
                before = self._cache_before[prefix]
                delta = self.cache_delta[prefix]
                delta['hits'] += now[0] - before[0]
                delta['misses'] += now[1] - before[1]
                delta['entries'] += now[2] - before[2]
            else:
                self._cache_before[prefix] = now

    # -- results ----------------------------------------------------------

    def metrics(self, traced_s: float, overhead: tuple[float, float],
                witness_count=None, scale: float = 1.0) -> tuple[dict, list[str], dict]:
        """(per-layer metrics, names of absent metrics, ratio bases).

        traced_s is the timed total of the traced pass as measured, the base
        of every layer share; overhead is (traced, untraced) seconds over
        the same calls; self times are multiplied by scale, the factor to
        the reference host speed.
        """
        calls, counters = self.calls, self.counters

        def self_seconds(span: str) -> float:
            name_id = self._name_ids.get(span)
            return 0.0 if name_id is None else scale * self.self_ns[name_id] / 1e9

        def ratio(num, den):
            return num / den if den else 0.0

        def sum_calls(*keys):
            return sum(calls[f'{k}.calls'] for k in keys)

        path_ops = ('crystal.Path.f', 'crystal.Path.e', 'crystal.Path.phi',
                    'crystal.Path.epsilon')
        letters = ('bijection.insert_letter', 'bijection.extract_letter')
        enum_paths = ('paths.enumerate_paths', 'paths.enumerate_all_paths')
        adm = 'rc.RiggedConfiguration.is_admissible'
        sv = self.cache_delta.get('rc.spec_vacancy', Counter())
        qb = self.cache_delta.get('qpoly.qbinom', Counter())
        witnesses = (sum(witness_count(w) for w in self.weights)
                     if witness_count is not None else None)
        values = {
            'plactic.rmatrix.calls': calls['plactic.rmatrix.calls'],
            'plactic.local_energy.calls': calls['plactic.local_energy.calls'],
            'plactic.tail_energy.self_s': self_seconds('plactic.tail_energy'),
            'crystal.enumerate_crystal.self_s': self_seconds('crystal.enumerate_crystal'),
            'crystal.path_ops.calls': sum_calls(*path_ops),
            'crystal.path_ops.self_s': self_seconds('crystal.path_ops'),
            'paths.enumerate_paths.calls': sum_calls(*enum_paths),
            'paths.enumerate_paths.self_s': self_seconds('paths.enumerate_paths'),
            'paths.paths_out': sum(counters[f'{k}.out'] for k in enum_paths),
            'rc.fermionic_polynomial.self_s': self_seconds('rc.fermionic_polynomial'),
            'qpoly.mul.calls': calls['qpoly.QPolynomial.__mul__.calls'],
            'qpoly.mul.self_s': self_seconds('qpoly.mul'),
            'rc.enumerate_rcs.self_s': self_seconds('rc.enumerate_rcs'),
            'rc.rcs_out': counters['rc.enumerate_rcs.out'],
            'rc.configurations': counters['rc.enumerate_configurations.items'],
            'rc.witness_tableaux': witnesses,
            'rc.is_admissible.calls': calls[f'{adm}.calls'],
            'rc.is_admissible.self_s': self_seconds('rc.is_admissible'),
            'rc.is_admissible.true_ratio': ratio(counters[f'{adm}.true'], calls[f'{adm}.calls']),
            'rc.spec_vacancy.entries': sv['entries'],
            'rc.spec_vacancy.hit_ratio': ratio(sv['hits'], sv['hits'] + sv['misses']),
            'qpoly.qbinom.hit_ratio': ratio(qb['hits'], qb['hits'] + qb['misses']),
            'bijection.path_to_rc.self_s': self_seconds('bijection.path_to_rc'),
            'bijection.rc_to_path.self_s': self_seconds('bijection.rc_to_path'),
            'bijection.letter_steps.calls': sum_calls(*letters),
            'bijection.letter_steps.self_s': self_seconds('bijection.letter_steps'),
            'rccrystal.ops.self_s': self_seconds('rccrystal.ops'),
            'rccrystal.f.defined_ratio': ratio(counters['rccrystal.f.defined'],
                                               calls['rccrystal.f.calls']),
            'cli.check_spec.self_s': self_seconds('cli.check_spec'),
            'trace.overhead_ratio': ratio(*overhead),
        }
        for layer in LAYERS:
            layer_ns = sum(ns for name_id, ns in self.self_ns.items()
                           if self._names[name_id].startswith(layer + '.'))
            values[f'{layer}.share'] = ratio(layer_ns / 1e9, traced_s)
        metrics, absent = {}, []
        for name, (unit, needs) in PER_LAYER.items():
            value = values[name]
            if value is None or (needs and not any(k in self.installed for k in needs)):
                absent.append(name)
                continue
            metrics[name] = {'value': value, 'unit': unit}
        bases = {
            'rc.is_admissible.true_ratio': calls[f'{adm}.calls'],
            'rc.spec_vacancy.hit_ratio': sv['hits'] + sv['misses'],
            'qpoly.qbinom.hit_ratio': qb['hits'] + qb['misses'],
            'rccrystal.f.defined_ratio': calls['rccrystal.f.calls'],
            'layer shares': {'traced_s': traced_s},
            'trace.overhead_ratio': {'traced_s': overhead[0], 'untraced_s': overhead[1]},
            'rc.witness_tableaux distinct weights': len(self.weights),
        }
        return metrics, absent, bases

    def write(self, path) -> int:
        """Write the stored spans as gzipped CSV; returns the span count."""
        spans = self.spans
        count = len(spans['id'])
        with gzip.open(path, 'wt', compresslevel=1) as fh:
            fh.write('# names: ' + ','.join(self._names) + '\n')
            fh.write('id,parent,name,start_ns,end_ns\n')
            for row in zip(spans['id'], spans['parent'], spans['name'],
                           spans['start'], spans['end']):
                fh.write('%d,%d,%d,%d,%d\n' % row)
        return count


def kostka_modules(package) -> dict:
    """Short name -> module for every loaded submodule of the package."""
    prefix = package.__name__ + '.'
    out = {'kostka': package}
    for name, module in list(sys.modules.items()):
        if name.startswith(prefix) and module is not None:
            out[name[len(prefix):]] = module
    return out
