"""Run the benchmark over several workloads and seeds and summarize it.

    python3 perfbench/sweep.py --seeds 0-9 --seconds 25 [--workloads map,check]
                               [--trace 1] [--out perfbench/out/sweep.json]

Each run is its own process, started one after another and waited for.
For every workload and metric it prints the median over the seeds and the
spread: the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def seeds_arg(text: str) -> list[int]:
    out = []
    for part in text.split(','):
        lo, _, hi = part.partition('-')
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / 'run.py'), '--workload', workload,
         '--seed', str(seed), '--seconds', str(seconds), '--trace', str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f'{workload} seed {seed} exited {proc.returncode}: {proc.stderr}')
    lines = proc.stdout.strip().splitlines()
    return {'detail': json.loads(lines[-2]), 'result': json.loads(lines[-1]),
            'wall_s': time.perf_counter() - start}


def median_spread(values: list[float]) -> dict:
    median = statistics.median(values)
    if len(values) >= 2 and median:
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median
    else:
        spread = None
    return {'median': median, 'spread': spread, 'values': values}


def summarize(runs: list[dict]) -> dict:
    names = runs[0]['result']['metrics']
    out = {}
    for name in names:
        values = [r['result']['metrics'][name]['value'] for r in runs
                  if name in r['result']['metrics']]
        out[name] = {'unit': runs[0]['result']['metrics'][name]['unit'],
                     **median_spread(values)}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split('\n\n')[0])
    parser.add_argument('--workloads', default=','.join(workloads.WORKLOADS))
    parser.add_argument('--seeds', type=seeds_arg, default=seeds_arg('0-9'))
    parser.add_argument('--seconds', type=float, default=25)
    parser.add_argument('--trace', type=int, choices=(0, 1), default=0)
    parser.add_argument('--out', type=Path)
    args = parser.parse_args(argv)
    report = {}
    for workload in args.workloads.split(','):
        runs = []
        for seed in args.seeds:
            runs.append(run_one(workload, seed, args.seconds, args.trace))
            r = runs[-1]['result']
            print(f'{workload} seed {seed}: attempted {r["attempted"]} failed {r["failed"]}',
                  file=sys.stderr, flush=True)
        summary = summarize(runs)
        report[workload] = {
            'seeds': args.seeds,
            'attempted': [r['result']['attempted'] for r in runs],
            'failed': [r['result']['failed'] for r in runs],
            'wall_s': [r['wall_s'] for r in runs],
            'provenance': runs[0]['detail']['provenance'],
            'metrics': summary,
        }
        if not args.trace:
            samples = [r['detail']['samples'] for r in runs]
            report[workload]['host_factor'] = [s['host_factor'] for s in samples]
            report[workload]['as_measured'] = {
                name: median_spread([s['as_measured'][name] for s in samples])
                for name in samples[0]['as_measured']}
        for name, m in summary.items():
            spread = '-' if m['spread'] is None else f'{m["spread"]:.3f}'
            print(f'{workload:8} {name:34} median {m["median"]:>12.6g} {m["unit"]:6} '
                  f'spread {spread}', flush=True)
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + '\n')
    return 0


if __name__ == '__main__':
    raise SystemExit(main())
