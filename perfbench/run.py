"""Benchmark of the kostka package.

    python3 perfbench/run.py --workload rc-poly --seed 1 --seconds 25 --trace 0

Run from the root of a checkout holding src/kostka.  One process, one
thread, one caller in a closed loop: each call is the work of one `kostka`
subcommand, timed on its own, and checked outside the timed interval.
The process starts with every memo table cold, as a CLI invocation does.
Times are reported at the reference host speed (see hostspeed.py), and the
figures as measured go to the provenance line.

With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 it holds the per-layer metrics of a
traced pass (see tracer.py); an untraced pass over the first half of the
calls gives the tracing overhead.  The line before it carries provenance,
sample counts and the error rate; stderr gets a readable table.  Wrong
outputs and exceptions are counted, never fatal.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from math import exp, lgamma, log, log1p, sqrt
from pathlib import Path

import hostspeed
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / 'src'
SETUP_REPEATS = 9
# Stop issuing calls after this long, so a run always ends within 180 s.
DEADLINE_S = 150.0
MAX_REPORTED_FAILURES = 5


class BenchError(Exception):
    """The benchmark cannot run here."""


def import_fresh():
    """Import kostka (and its CLI module) from src/ with cold memo tables."""
    for name in [m for m in sys.modules if m == 'kostka' or m.startswith('kostka.')]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        package = importlib.import_module('kostka')
        importlib.import_module('kostka.cli')
    except ImportError as exc:
        raise BenchError(f'cannot import kostka from {SRC}: {exc}') from None
    if Path(package.__file__).resolve().parent != SRC / 'kostka':
        raise BenchError(f'kostka was imported from {package.__file__}, not {SRC}')
    return package


def setup(workload: str, seed: int, seconds: float):
    """Import and input generation, repeated, with the host probed between
    repeats; returns (package, items, times at the reference speed)."""
    clock = hostspeed.Clock()
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        package = import_fresh()
        items = workloads.build(workload, seed, seconds)
        times.append(time.perf_counter() - start)
        clock.tick(force=True)
    return package, items, [t * clock.factor() for t in times]


class Outcome:
    """Latencies and failures of one pass over the items.

    latencies are as measured; scaled() gives them at the reference host
    speed (see hostspeed.py).
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.host_speeds: list[float] = []
        self.factor = 1.0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.truncated = False

    def fail(self, count: int, label: str, reason: str) -> None:
        self.failed += count
        if len(self.failures) < MAX_REPORTED_FAILURES:
            self.failures.append(f'{label}: {reason}')

    def scaled(self) -> list[float]:
        return [x * self.factor for x in self.latencies]


def run_items(package, items, deadline: float, tracer=None, check=True) -> Outcome:
    """Time every call of every item; check each item unless told not to."""
    out = Outcome()
    clock = hostspeed.Clock()
    for item in items:
        if time.perf_counter() > deadline:
            out.truncated = True
            break
        clock.tick()
        outputs, error = [], None
        for label, call in item.calls:
            frame = tracer.begin_op() if tracer else None
            start = time.perf_counter()
            try:
                outputs.append(call(package))
            except Exception:
                error = error or (label, traceback.format_exc(limit=-1).strip().splitlines()[-1])
            finally:
                out.latencies.append(time.perf_counter() - start)
                if tracer:
                    tracer.end_op(frame)
            out.attempted += 1
        if not check:
            continue
        label = item.calls[0][0]
        if error:
            out.fail(len(item.calls), *error)
            continue
        try:
            correct = item.check(package, outputs)
        except Exception:
            out.fail(len(item.calls), label,
                     'check raised ' + traceback.format_exc(limit=-1).strip().splitlines()[-1])
            continue
        if not correct:
            out.fail(len(item.calls), label, 'wrong output')
    clock.tick(force=True)
    out.host_speeds, out.factor = clock.speeds, clock.factor()
    return out


def quantile(values, p: float, steps: int = 8) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A mean of all order statistics weighted by the Beta(p(n+1), (1-p)(n+1))
    density, integrated over each statistic's share of [0, 1].  Unlike a
    single order statistic it does not jump across the gaps of a lumpy
    latency distribution (the 121 calls of `check` have several).  Weights
    beyond ten standard deviations of the density are left out.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_beta = lgamma(a) + lgamma(b) - lgamma(a + b)
    sd = sqrt(p * (1 - p) / n)
    lo, hi = max(0, int((p - 10 * sd) * n)), min(n, int((p + 10 * sd) * n) + 1)
    total = weights = 0.0
    for i in range(lo, hi):
        w = 0.0
        for j in range(steps):
            x = (i + (j + 0.5) / steps) / n
            w += exp((a - 1) * log(x) + (b - 1) * log1p(-x) - log_beta)
        total += w * xs[i]
        weights += w
    return total / weights


def end_to_end(out: Outcome, setup_times) -> tuple[dict, dict]:
    """(end-to-end metrics at the reference host speed, the sample counts
    behind them and the figures as measured)."""
    lat = out.scaled()
    p50, p90 = quantile(lat, 0.5), quantile(lat, 0.9)
    metrics = {
        'ops_per_s': {'value': len(lat) / sum(lat), 'unit': 'op/s'},
        'latency_p50_ms': {'value': 1e3 * p50, 'unit': 'ms'},
        'latency_p90_ms': {'value': 1e3 * p90, 'unit': 'ms'},
        'setup_s': {'value': statistics.median(setup_times), 'unit': 's'},
        'peak_rss_mb': {'value': peak_rss_mb(), 'unit': 'MB'},
    }
    samples = {
        'ops': len(lat),
        'timed_s': sum(lat),
        'latency_above_p50': sum(x > p50 for x in lat),
        'latency_above_p90': sum(x > p90 for x in lat),
        'setup_repeats': len(setup_times),
        'setup_s_each': setup_times,
        'host_factor': out.factor,
        'host_probes': len(out.host_speeds),
        'as_measured': {
            'ops_per_s': len(lat) / sum(out.latencies),
            'latency_p50_ms': 1e3 * quantile(out.latencies, 0.5),
            'latency_p90_ms': 1e3 * quantile(out.latencies, 0.9),
        },
    }
    return metrics, samples


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def provenance(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    return {
        'workload': workload,
        'seed': seed,
        'seconds': seconds,
        'trace': trace,
        'python': platform.python_version(),
        'implementation': platform.python_implementation(),
        'cpu_model': cpu_model(),
        'nproc': len(os.sched_getaffinity(0)),
        'git_sha': git_sha(),
        'source_sha256': source_digest(),
    }


def cpu_model() -> str:
    try:
        with open('/proc/cpuinfo') as fh:
            for line in fh:
                if line.startswith('model name'):
                    return line.split(':', 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    git = ROOT / '.git'
    try:
        head = (git / 'HEAD').read_text().strip()
        if not head.startswith('ref: '):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / 'packed-refs').read_text().splitlines():
            if line.endswith(' ' + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """SHA-256 over the package sources, naming the code measured even
    where the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((SRC / 'kostka').glob('*.py')):
        digest.update(path.name.encode() + b'\0' + path.read_bytes())
    return digest.hexdigest()


def traced_run(workload, seed, items, deadline):
    """Per-layer metrics of a traced pass over all items.

    An untraced pass over the first half of the items, on cold modules of
    its own, is the reference for the tracing overhead.
    """
    package = import_fresh()
    reference = run_items(package, items[:(len(items) + 1) // 2], deadline, check=False)
    package = import_fresh()
    tracer = tracing.Tracer()
    tracer.install(tracing.kostka_modules(package))
    out = run_items(package, items, deadline, tracer)
    count = getattr(package, 'count_bound_tableaux', None)
    # The overhead compares the calls both passes completed.
    common = min(len(reference.latencies), len(out.latencies))
    overhead = (sum(out.scaled()[:common]), sum(reference.scaled()[:common]))
    metrics, absent, bases = tracer.metrics(sum(out.latencies), overhead, count, out.factor)
    target = ROOT / 'perfbench' / 'out' / f'trace-{workload}-seed{seed}.csv.gz'
    target.parent.mkdir(exist_ok=True)
    written = tracer.write(target)
    info = {'ratio_bases': bases, 'absent_metrics': absent,
            'spans_written': written, 'spans_dropped': tracer.dropped,
            'trace_file': str(target.relative_to(ROOT)),
            'untraced_truncated': reference.truncated}
    return out, metrics, info


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    parser.add_argument('--workload', required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument('--seed', type=int, required=True)
    parser.add_argument('--seconds', type=float, required=True)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print('error: refusing to run under python -O: the package asserts '
              'are part of its checks', file=sys.stderr)
        return 2
    try:
        package, items, setup_times = setup(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f'error: {exc}', file=sys.stderr)
        return 2
    deadline = started + DEADLINE_S
    detail = {'provenance': provenance(args.workload, args.seed, args.seconds,
                                       bool(args.trace))}
    if args.trace:
        out, metrics, detail['trace'] = traced_run(args.workload, args.seed, items, deadline)
    else:
        out = run_items(package, items, deadline)
        metrics, detail['samples'] = end_to_end(out, setup_times)
    if not out.latencies:
        print('error: no call completed before the deadline', file=sys.stderr)
        return 1
    error_rate = out.failed / out.attempted
    detail.update({'items': len(items), 'attempted': out.attempted,
                   'failed': out.failed, 'truncated': out.truncated,
                   'error_rate': {'value': error_rate, 'unit': 'ratio'},
                   'failures': out.failures})
    for name, metric in [*metrics.items(), ('error_rate', detail['error_rate'])]:
        print(f'{args.workload:8} {name:34} {metric["value"]:>14.6g} {metric["unit"]}',
              file=sys.stderr)
    print(json.dumps(detail))
    print(json.dumps({'correct': out.failed == 0,
                      'attempted': out.attempted, 'failed': out.failed,
                      'metrics': metrics}))
    return 0


if __name__ == '__main__':
    raise SystemExit(main())
