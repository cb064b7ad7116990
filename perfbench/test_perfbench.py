"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def far_deadline() -> float:
    return time.perf_counter() + 600


@pytest.fixture
def kostka():
    return run.import_fresh()


def energy_items(count: int):
    return workloads.build_energy(random.Random(3), 1)[:count]


def test_corrupted_expected_value_raises_error_rate(kostka, monkeypatch):
    items = energy_items(4)
    honest = kostka.fermionic_polynomial
    monkeypatch.setattr(kostka, 'fermionic_polynomial',
                        lambda spec, mu: honest(spec, mu) + 1)
    out = run.run_items(kostka, items, far_deadline())
    assert out.attempted == 4
    assert out.failed == 4
    assert out.failed / out.attempted > 0
    assert all('wrong output' in f for f in out.failures)


def test_honest_items_pass(kostka):
    out = run.run_items(kostka, energy_items(4), far_deadline())
    assert (out.attempted, out.failed) == (4, 0)


def test_exceptions_are_counted_and_the_run_goes_on(kostka):
    def boom(k):
        raise ValueError('bad input')

    def bad_check(k, outputs):
        raise KeyError('missing')

    items = [workloads.Item((('raises', boom), ('fine', lambda k: 1)), lambda k, o: True),
             workloads.Item((('checked', lambda k: 2),), bad_check),
             workloads.Item((('good', lambda k: 3),), lambda k, o: o == [3])]
    out = run.run_items(kostka, items, far_deadline())
    assert out.attempted == 4
    assert out.failed == 3
    assert 'ValueError' in out.failures[0]
    assert 'check raised' in out.failures[1]


def test_inputs_depend_only_on_the_seed():
    def labels(seed):
        return [label for item in workloads.build('map', seed, 1)
                for label, _ in item.calls]

    assert labels(5) == labels(5)
    assert labels(5) != labels(6)


def test_check_stream_is_the_default_check_command(kostka):
    rng = random.Random(0)
    expected = [kostka.cli.random_spec(rng, 4, 6) for _ in range(50)]
    expected += kostka.cli.sweep_specs(4, 4)
    assert workloads.check_stream_specs() == [(s.n, s.factors) for s in expected]


@pytest.mark.parametrize('shape', [(1, 3, 3), (2, 2, 4), (3, 1, 4), (2, 1, 3)])
def test_generated_tableaux_are_the_whole_crystal(kostka, shape):
    ours = workloads.rect_tableaux(*shape)
    theirs = [t.rows for t in kostka.enumerate_crystal(*shape)]
    assert sorted(ours) == sorted(theirs)
    assert len(set(ours)) == len(ours)


def test_witness_count_matches_the_package(kostka):
    for mu in [(3, 3, 2, 1, 1), (2, 2, 2, 2, 2), (4, 0, 3, 1), (0, 0, 5)]:
        assert workloads.witness_count(mu) == kostka.count_bound_tableaux(mu)


def test_traced_pass_counts_layers(kostka):
    tracer = tracing.Tracer()
    tracer.install(tracing.kostka_modules(kostka))
    items = workloads.build_map(random.Random(1), 1)[:20]
    out = run.run_items(kostka, items, far_deadline(), tracer)
    assert out.failed == 0
    timed = sum(out.latencies)
    metrics, absent, _ = tracer.metrics(timed, (timed, timed), kostka.count_bound_tableaux)
    assert absent == []
    assert set(metrics) == set(tracing.PER_LAYER)
    assert metrics['bijection.letter_steps.calls']['value'] > 0
    assert metrics['rc.is_admissible.calls']['value'] >= 20
    assert metrics['plactic.rmatrix.calls']['value'] == 0
    # Output checks run untraced: the path operators appear only there.
    assert metrics['crystal.path_ops.calls']['value'] == 0
    shares = sum(metrics[f'{layer}.share']['value'] for layer in tracing.LAYERS)
    assert 0 < shares <= 1


def test_missing_probe_targets_make_metrics_absent(kostka):
    modules = tracing.kostka_modules(kostka)
    del modules['cli']
    tracer = tracing.Tracer()
    tracer.install(modules)
    metrics, absent, _ = tracer.metrics(1.0, (1.0, 1.0), None)
    assert 'cli.check_spec.self_s' in absent
    assert 'rc.witness_tableaux' in absent
    assert 'cli.check_spec.self_s' not in metrics
    assert 'rc.is_admissible.calls' in metrics


def run_bench(cwd: Path, *flags: str, trace: int = 0):
    return subprocess.run([sys.executable, *flags, 'perfbench/run.py', '--workload', 'map',
                           '--seed', '0', '--seconds', '1', '--trace', str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_refuses_to_run_without_asserts():
    proc = run_bench(HERE.parent, '-O')
    assert proc.returncode != 0
    assert proc.stdout == ''


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / 'perfbench',
                    ignore=shutil.ignore_patterns('__pycache__', 'out'))
    shutil.copy(HERE.parent / 'BENCHMARK.json', tmp_path)
    proc = run_bench(tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ''


@pytest.mark.parametrize('trace, kind', [(0, 'end_to_end'), (1, 'per_layer')])
def test_result_line_has_the_contract_keys(trace, kind):
    proc = run_bench(HERE.parent, trace=trace)
    assert proc.returncode == 0
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {'correct', 'attempted', 'failed', 'metrics'}
    assert result['correct'] and result['failed'] == 0
    spec = json.loads((HERE.parent / 'BENCHMARK.json').read_text())
    assert set(result['metrics']) == {m['name'] for m in spec[kind]}
    for metric in spec[kind]:
        assert result['metrics'][metric['name']]['unit'] == metric['unit']


def test_quantile_estimates():
    assert run.quantile([4.0], 0.9) == 4.0
    assert run.quantile([2.5] * 30, 0.5) == pytest.approx(2.5)
    xs = [i / 1000 for i in range(1001)]
    assert run.quantile(xs, 0.5) == pytest.approx(0.5, abs=1e-3)
    assert run.quantile(xs, 0.9) == pytest.approx(0.9, abs=1e-3)


def test_times_are_scaled_by_the_pass_host_speed(kostka):
    out = run.run_items(kostka, energy_items(2), far_deadline())
    assert len(out.host_speeds) >= 2
    expected = sum(out.host_speeds) / len(out.host_speeds) / hostspeed.REFERENCE_SPEED
    assert out.factor == pytest.approx(expected)
    assert out.scaled() == pytest.approx([x * out.factor for x in out.latencies])
    metrics, samples = run.end_to_end(out, [0.1])
    assert metrics['ops_per_s']['value'] == pytest.approx(2 / sum(out.scaled()))
    assert samples['as_measured']['ops_per_s'] == pytest.approx(2 / sum(out.latencies))
