"""Tests of the benchmark itself: ``python3 -m pytest benchmarks``."""

from __future__ import annotations

import dataclasses
import signal
import sys
import time

import pytest

import bench
import streamgen
import yardstick

sys.path.insert(0, bench.SRC)

import densbrackets  # noqa: E402

SMOKE = {
    "gauss-area": {"tol": 3e-2},
    "bracket-stream": {"problems": 12},
}


@pytest.fixture
def smoke(monkeypatch):
    monkeypatch.setattr(bench, "PARAMS", SMOKE)
    monkeypatch.setattr(bench, "SETUP_SAMPLES", 2)


def test_generator_is_deterministic_per_seed():
    texts = lambda seed: [(p.domain, p.rho_text, p.f_text, p.h_text) for p in streamgen.generate(seed, 60)]
    assert texts(7) == texts(7)
    assert texts(7) != texts(8)
    domains = [p.domain for p in streamgen.generate(7, 60)]
    assert {d: domains.count(d) for d in set(domains)} == {"square": 20, "torus": 20, "sphere": 20}


def test_reference_matches_a_closed_form():
    # f = x, h = y on the square with rho = 1: the bracket is exactly 1.
    problem = streamgen.Problem("square", 0, ("var", "x"), ("var", "y"))
    value, scale = streamgen.reference(problem, bench.GL_ORDER)
    assert value == pytest.approx(1.0, abs=1e-12)
    assert scale == pytest.approx(1.0, abs=1e-12)


def test_yardstick_samples_while_running_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    yard = yardstick.Yardstick()
    with yard.running():
        start = yard.reading()
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
        program_s, yard_s, calls = yard.since(start)
    assert signal.getsignal(signal.SIGALRM) is before
    assert calls >= 10 and 0 < yard_s < program_s
    assert program_s + yard_s == pytest.approx(0.2, rel=0.5)
    # At the reference speed a time is left as it is.
    assert yardstick.at_reference(2.0, 10 * yardstick.REFERENCE_S, 10) == pytest.approx(2.0)


@pytest.mark.parametrize("workload", sorted(SMOKE))
def test_smoke_run_is_correct_and_quick(smoke, workload):
    start = time.perf_counter()
    record, result = bench.run(workload, seed=3, seconds=0, trace=False)
    assert time.perf_counter() - start < 30
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {"setup_s", "solve_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record["metrics"]["fail_frac"]["value"] == 0


def test_traced_smoke_run_reports_every_layer(smoke):
    record, result = bench.run("bracket-stream", seed=3, seconds=0, trace=True)
    assert result["correct"]
    metrics = result["metrics"]
    assert metrics["cli.rows_passed"]["value"] == 13
    assert metrics["expressions.compiles"]["value"] > 0
    assert metrics["geometry.mass_evals"]["value"] > 0
    assert metrics["quadrature.evals"]["value"] > metrics["geometry.mass_evals"]["value"]


def _perturbed(fn):
    def wrapped(*args, **kwargs):
        result = fn(*args, **kwargs)
        return dataclasses.replace(result, value=result.value * 1.1 + 1e-3)

    return wrapped


@pytest.mark.parametrize(
    "workload, name", [("gauss-area", "area"), ("bracket-stream", "bracket")]
)
def test_perturbed_value_fails_its_check(smoke, monkeypatch, workload, name):
    monkeypatch.setattr(densbrackets, name, _perturbed(getattr(densbrackets, name)))
    record, result = bench.run(workload, seed=3, seconds=0, trace=False)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert record["metrics"]["fail_frac"]["value"] > 0
