"""Acceptance gate: every release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  The criteria:

1. square-domain bracket table reproduced against closed forms (<= 5 s);
2. torus-domain bracket table, densities renormalized by computed mass (<= 10 s);
3. sphere-domain bracket table (<= 30 s);
4. Gaussian leaf-patch area: normalization constant matched under at least
   one weight convention, area matched by at least one weight mode, both
   modes reported and within their error estimates of the closed-form
   ground truth (<= 10 min);
5. algebraic property suites (brackets, quadrature, expression language);
6. geometry mass/normalization checks;
7. leaf-area invariants.
"""

from __future__ import annotations

import json
import math
import random
import time

import numpy as np
import pytest

from densbrackets.areas import AreaProblem, FlowMap, area, inner_bracket, pullback_density
from densbrackets.brackets import BracketProblem, bracket
from densbrackets.cli import main as cli_main
from densbrackets.expressions import Var, compile_expr, diff, evaluate, parse, to_text
from densbrackets.geometry import DOMAINS, SPHERE, SQUARE, TORUS, density_mass, normalize
from densbrackets.quadrature import _GK_NODES, _K15_WEIGHTS, QuadSpec, integrate_2d

from conftest import SMOOTH_FUNCTIONS, integrate_1d, random_expr
from oracles import GAUSS_AREA_LITERAL, GAUSS_AREA_MEASURE, besseli_oracle

CONFIG_DIR = __file__.rsplit("/", 2)[0] + "/configs"

REPORTED_GAUSS_MASS = 0.7082398710278981
REPORTED_GAUSS_AREA = 3.3009295509955767

GAUSSIAN_RAW = "exp(-(1/4)*(sin(theta)/(1-cos(theta)))^4*sin(2*phi)^2)"


def _report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"{status}  {name}{suffix}")


def _run_table(capsys, config: str) -> list[dict]:
    code = cli_main(["table", f"{CONFIG_DIR}/{config}"])
    out = capsys.readouterr().out
    lines = [json.loads(line) for line in out.strip().splitlines()]
    assert code == 0, f"table run {config} exited {code}"
    return lines


# -- criterion 1: square table ---------------------------------------------------


def test_criterion_1_square_table(capsys):
    expected = [
        1.0,
        -2.5,
        3 * (math.sin(2) - math.sin(1) ** 2),
        0.0,
        8 * (1 - math.exp(-0.5)) ** 2 / (math.pi * math.erf(math.sqrt(2) / 2) ** 2),
    ]
    start = time.perf_counter()
    lines = _run_table(capsys, "table1.cfg")
    elapsed = time.perf_counter() - start
    ok = len(lines) == 5 and elapsed <= 5.0
    deviations = []
    for line, want in zip(lines, expected):
        deviations.append(abs(line["value"] - want))
        ok = ok and line["pass"] and deviations[-1] <= 1e-8
    with capsys.disabled():
        _report(
            "criterion 1: square bracket table",
            ok,
            f"max dev {max(deviations):.2e}, {elapsed:.2f}s",
        )
    assert ok


# -- criterion 2: torus table ----------------------------------------------------


def test_criterion_2_torus_table(capsys):
    four_pi_sq = 4 * math.pi**2
    expected = [
        (1.0, 1e-7),
        (four_pi_sq, 1e-7),
        (3 * (math.exp(2 * math.pi) - 1) ** 2 / (8 * math.pi**2), 1e-6),
        (1.0, 1e-7),
        (four_pi_sq, 1e-7),
    ]
    start = time.perf_counter()
    lines = _run_table(capsys, "table2.cfg")
    elapsed = time.perf_counter() - start
    ok = len(lines) == 5 and elapsed <= 10.0
    worst = 0.0
    for line, (want, rel) in zip(lines, expected):
        rel_dev = abs(line["value"] - want) / abs(want)
        worst = max(worst, rel_dev)
        ok = ok and line["pass"] and rel_dev <= rel
    with capsys.disabled():
        _report(
            "criterion 2: torus bracket table",
            ok,
            f"max rel dev {worst:.2e}, {elapsed:.2f}s",
        )
    assert ok


# -- criterion 3: sphere table -----------------------------------------------------


def test_criterion_3_sphere_table(capsys):
    start = time.perf_counter()
    lines = _run_table(capsys, "table3.cfg")
    elapsed = time.perf_counter() - start
    checks = [
        abs(lines[0]["value"] - 1.0) <= 1e-8,
        abs(lines[1]["value"]) <= 1e-8,
        abs(lines[2]["value"] - 0.0503498) <= 1e-5,
    ]
    ok = len(lines) == 3 and all(checks) and all(l["pass"] for l in lines)
    ok = ok and elapsed <= 30.0
    with capsys.disabled():
        _report(
            "criterion 3: sphere bracket table",
            ok,
            f"row values {[l['value'] for l in lines]}, {elapsed:.2f}s",
        )
    assert ok


# -- criterion 5: property suites ----------------------------------------------------

_PROP_SPEC = QuadSpec(abs_tol=1e-9, rel_tol=1e-9)

_FH_POOL = {
    "square": ["x", "y", "x*y", "sin(x)", "cos(2*y)", "x^2 - y", "exp(x/2)*y", "x^2*y"],
    "torus": ["t1", "t2", "sin(t1)", "cos(t2)", "t1*t2/10", "sin(t1)*cos(t2)", "t2^2/20"],
    "sphere": [
        "theta",
        "phi",
        "cos(theta)",
        "sin(theta)*cos(phi)",
        "theta*phi/5",
        "sin(theta)^2*sin(phi)",
        "cos(theta)*phi/4",
    ],
}
_RHO_POOL = {
    "square": ["1", "3/2*(x^2+y^2)", "exp(-(x^2+y^2)/2)"],
    "torus": ["1", "(cos(t1)+cos(t2)+2)/2", "exp(cos(t1)+cos(t2))"],
    "sphere": ["1", "(2/pi)*sin(theta)/(1-cos(theta))", "1 + sin(theta)^2/2"],
}


def _bracket_raw(domain, rho, f, h):
    problem = BracketProblem(
        domain=domain,
        tau=parse("1"),
        rho=rho if not isinstance(rho, str) else parse(rho),
        f=f if not isinstance(f, str) else parse(f),
        h=h if not isinstance(h, str) else parse(h),
        auto_normalize=False,
    )
    return bracket(problem, _PROP_SPEC)


def test_criterion_5_bracket_properties(capsys):
    rng = random.Random(2027)
    failures = []
    n_triples = 50
    for name, domain in DOMAINS.items():
        for i in range(n_triples):
            f = rng.choice(_FH_POOL[name])
            h = rng.choice(_FH_POOL[name])
            rho = rng.choice(_RHO_POOL[name])
            fw = _bracket_raw(domain, rho, f, h)
            bw = _bracket_raw(domain, rho, h, f)
            tol = 2 * (fw.error_estimate + bw.error_estimate) + 1e-11
            if abs(fw.value + bw.value) > tol:
                failures.append(("antisymmetry", name, f, h, rho))
            sr = _bracket_raw(domain, rho, f, f)
            if abs(sr.value) > 2 * sr.error_estimate + 1e-11:
                failures.append(("self-annihilation", name, f, rho))
            cr = _bracket_raw(domain, rho, "5/3", h)
            if abs(cr.value) > 2 * cr.error_estimate + 1e-11:
                failures.append(("constant", name, h, rho))
            a, b = rng.uniform(-2, 2), rng.uniform(-2, 2)
            f2 = rng.choice(_FH_POOL[name])
            combo = parse(f"{a!r}*({f}) + {b!r}*({f2})")
            rc = _bracket_raw(domain, rho, combo, h)
            r1 = fw
            r2 = _bracket_raw(domain, rho, f2, h)
            tol = (
                abs(a) * r1.error_estimate
                + abs(b) * r2.error_estimate
                + rc.error_estimate
                + 1e-10
            )
            if abs(rc.value - (a * r1.value + b * r2.value)) > tol:
                failures.append(("bilinearity", name, f, f2, h, rho))
    ok = not failures
    with capsys.disabled():
        _report(
            "criterion 5a: bracket algebra on 50 random triples per domain",
            ok,
            f"failures: {failures[:3]}" if failures else "antisymmetry, self, constant, bilinearity",
        )
    assert ok


def test_criterion_5_determinant_law(capsys):
    rng = random.Random(404)
    worst = 0.0
    for _ in range(5):
        a, b, c, d = (rng.uniform(-2, 2) for _ in range(4))
        for rho in _RHO_POOL["square"]:
            problem = BracketProblem(
                domain=SQUARE,
                tau=parse("1"),
                rho=parse(rho),
                f=parse(f"{a!r}*x + {b!r}*y"),
                h=parse(f"{c!r}*x + {d!r}*y"),
            )
            r = bracket(problem)
            worst = max(worst, abs(r.value - (a * d - b * c)))
    ok = worst <= 1e-8
    with capsys.disabled():
        _report(
            "criterion 5b: ad - bc law for linear functionals",
            ok,
            f"worst dev {worst:.2e} over 5 coefficient sets x 3 densities",
        )
    assert ok


def test_criterion_5_quadrature_properties(capsys):
    problems = []

    # determinism: bit-identical repeats
    f1 = lambda x: np.exp(-x * x) * np.cos(7 * x)
    a1 = integrate_1d(f1, -2.0, 3.0)
    a2 = integrate_1d(f1, -2.0, 3.0)
    if not (a1.value == a2.value and a1.error_estimate == a2.error_estimate):
        problems.append("1d determinism")
    g = lambda U, V: np.exp(np.sin(U) + V / 3.0)
    b1 = integrate_2d(g, ((0, 2), (0, 3)))
    b2 = integrate_2d(g, ((0, 2), (0, 3)))
    if b1.value != b2.value:
        problems.append("2d determinism")

    # linearity
    rf = integrate_1d(np.sin, 0.2, 2.0)
    rg = integrate_1d(lambda x: x * x, 0.2, 2.0)
    rc = integrate_1d(lambda x: 3 * np.sin(x) - 2 * x * x, 0.2, 2.0)
    if abs(rc.value - (3 * rf.value - 2 * rg.value)) > (
        3 * rf.error_estimate + 2 * rg.error_estimate + rc.error_estimate + 1e-13
    ):
        problems.append("linearity")

    # interval additivity at random split points
    rng = random.Random(11)
    h = lambda x: np.exp(-x) * np.sin(5 * x)
    for _ in range(5):
        m = rng.uniform(0.2, 2.8)
        whole = integrate_1d(h, 0.0, 3.0)
        left = integrate_1d(h, 0.0, m)
        right = integrate_1d(h, m, 3.0)
        tol = (
            whole.error_estimate
            + left.error_estimate
            + right.error_estimate
            + 1e-13
        )
        if abs(whole.value - left.value - right.value) > tol:
            problems.append(f"additivity at {m:.3f}")

    # degree-13 exactness on a single panel
    for trial in range(10):
        coeffs = [rng.uniform(-2, 2) for _ in range(14)]
        poly = lambda x, c=coeffs: sum(ck * x**k for k, ck in enumerate(c))
        exact = sum(
            ck * (1 - (-1) ** (k + 1)) / (k + 1) for k, ck in enumerate(coeffs)
        )
        # one panel on [-1, 1]: half-width 1, midpoint 0
        kron = poly(_GK_NODES) @ _K15_WEIGHTS
        if abs(kron - exact) > 1e-13 * (1 + abs(exact)):
            problems.append(f"exactness trial {trial}")

    ok = not problems
    with capsys.disabled():
        _report(
            "criterion 5c: quadrature determinism/linearity/additivity/exactness",
            ok,
            ", ".join(problems) if problems else "all held",
        )
    assert ok


def test_criterion_5_derivatives_vs_finite_differences(capsys):
    rng = random.Random(1009)
    checked = 0
    attempts = 0
    worst = 0.0
    failures = 0
    while checked < 1000:
        attempts += 1
        assert attempts < 60000, "generator kept hitting undefined points"
        e = random_expr(rng, 4, ("x", "y"), functions=SMOOTH_FUNCTIONS, gentle=True)
        x0 = rng.uniform(-2.0, 2.0)
        y0 = rng.uniform(-2.0, 2.0)
        h = 1e-6 * (1.0 + abs(x0))
        try:
            up = evaluate(e, {"x": x0 + h, "y": y0})
            dn = evaluate(e, {"x": x0 - h, "y": y0})
            grad = evaluate(diff(e, "x"), {"x": x0, "y": y0})
        except Exception:
            continue
        fd = (up - dn) / (2 * h)
        if abs(fd) > 1e5 or abs(up) > 1e8:
            continue
        dev = abs(grad - fd) / (1.0 + abs(fd))
        worst = max(worst, dev)
        if dev > 1e-6:
            failures += 1
        checked += 1
    ok = failures == 0
    with capsys.disabled():
        _report(
            "criterion 5d: symbolic derivative vs finite differences (1000 cases)",
            ok,
            f"worst relative deviation {worst:.2e}",
        )
    assert ok


def test_criterion_5_roundtrip(capsys):
    rng = random.Random(3511)
    checked = 0
    attempts = 0
    failures = 0
    while checked < 1000:
        attempts += 1
        assert attempts < 40000
        e = random_expr(rng, 5, ("x", "y", "z"))
        again = parse(to_text(e))
        verified = False
        for _ in range(8):
            b = {v: rng.uniform(-2, 2) for v in ("x", "y", "z")}
            try:
                v1 = evaluate(e, b)
                v2 = evaluate(again, b)
            except Exception:
                continue
            if abs(v1 - v2) > 1e-14 * (1.0 + abs(v1)):
                failures += 1
            verified = True
        if verified:
            checked += 1
    ok = failures == 0
    with capsys.disabled():
        _report(
            "criterion 5e: print/parse round-trip (1000 random trees)",
            ok,
            f"{failures} value mismatches",
        )
    assert ok


# -- criterion 6: geometry checks ------------------------------------------------------


def test_criterion_6_geometry(capsys):
    problems = []
    r = density_mass(SPHERE, parse("1"))
    if abs(r.value - 1.0) > 1e-12:
        problems.append(f"sphere unit mass {r.value!r}")
    bessel = density_mass(TORUS, parse("exp(cos(t1)+cos(t2))"))
    want = besseli_oracle(0, 1.0) ** 2
    if abs(bessel.value - want) > 1e-8:
        problems.append(f"torus mass {bessel.value!r} vs I0(1)^2 {want!r}")
    d1 = normalize(SPHERE, parse(GAUSSIAN_RAW))
    d2 = normalize(SPHERE, d1.expr)
    if abs(d2.mass.value - d1.mass.value) > 1e-10:
        problems.append("normalize not idempotent")
    ok = not problems
    with capsys.disabled():
        _report(
            "criterion 6: geometry mass and normalization checks",
            ok,
            ", ".join(problems) if problems else "sphere mass, Bessel mass, idempotence",
        )
    assert ok


# -- criterion 7: leaf-area invariants ---------------------------------------------------


def test_criterion_7_leaf_area_invariants(capsys):
    problems = []
    quarter = (math.pi / 4, 3 * math.pi / 4)
    rotation = FlowMap(theta_map=Var("theta"), phi_map=parse("phi + t"))

    p = AreaProblem(
        rho=parse("1"),
        flow=rotation,
        s_interval=quarter,
        t_interval=quarter,
        weight_mode="measure",
    )
    r = area(p, QuadSpec(abs_tol=1e-9, rel_tol=1e-9))
    if abs(r.value - (math.pi / 2) ** 2) > 1e-8:
        problems.append(f"rotation area {r.value!r}")

    gauss = AreaProblem(
        rho=parse(GAUSSIAN_RAW),
        flow=rotation,
        s_interval=quarter,
        t_interval=quarter,
        weight_mode="measure",
    )
    spec = QuadSpec(abs_tol=1e-10, rel_tol=1e-10)
    values = [inner_bracket(gauss, 1.3, t, spec).value for t in (0.9, 1.2, 1.6, 2.0, 2.3)]
    spread = max(values) - min(values)
    if spread > 1e-8:
        problems.append(f"t-invariance spread {spread:.2e}")

    identity = FlowMap(theta_map=Var("theta"), phi_map=Var("phi"))
    pulled = pullback_density(parse(GAUSSIAN_RAW), identity)
    rng = random.Random(55)
    original = parse(GAUSSIAN_RAW)
    for _ in range(100):
        b = {
            "theta": rng.uniform(0.4, math.pi - 1e-3),
            "phi": rng.uniform(0.0, 2 * math.pi),
        }
        want = evaluate(original, b)
        got = evaluate(pulled, b)
        if abs(got - want) > 1e-12 * (1 + abs(want)):
            problems.append(f"identity pullback at {b}")
            break
    ok = not problems
    with capsys.disabled():
        _report(
            "criterion 7: leaf-area invariants",
            ok,
            ", ".join(problems) if problems else "rotation area, t-invariance, identity pullback",
        )
    assert ok


# -- criterion 4: Gaussian leaf patch (slowest, so last) ----------------------------------


def test_criterion_4_gaussian_area(capsys):
    start = time.perf_counter()
    raw = parse(GAUSSIAN_RAW)

    # normalization constant under the two conventions
    tight = QuadSpec(abs_tol=1e-12, rel_tol=1e-12)
    c_measure = density_mass(SPHERE, raw, tight).value
    plain = integrate_2d(compile_expr(raw, SPHERE.coords), SPHERE.box, tight)
    c_literal = plain.value / (4 * math.pi)
    matching_conventions = [
        name
        for name, value in (("measure", c_measure), ("literal", c_literal))
        if abs(value - REPORTED_GAUSS_MASS) <= 1e-6
    ]

    # area under both weight modes, density normalized by the computed mass
    rho = parse(f"({GAUSSIAN_RAW})/{c_measure!r}")
    quarter = (math.pi / 4, 3 * math.pi / 4)
    flow = FlowMap(theta_map=parse("arccos(theta + s)"), phi_map=parse("phi + t"))
    results = {}
    for mode in ("measure", "literal"):
        problem = AreaProblem(
            rho=rho,
            flow=flow,
            s_interval=quarter,
            t_interval=quarter,
            weight_mode=mode,
        )
        results[mode] = area(problem)  # default 4-d spec: 1e-7 outer, budget 5e9
    elapsed = time.perf_counter() - start

    matching_modes = [
        mode
        for mode, r in results.items()
        if r.converged
        and abs(r.value - REPORTED_GAUSS_AREA) / REPORTED_GAUSS_AREA <= 1e-6
    ]

    # the true error, against the closed-form reduction, is within the
    # reported error estimate
    truth = {"measure": GAUSS_AREA_MEASURE, "literal": GAUSS_AREA_LITERAL}
    true_error = {mode: abs(r.value - truth[mode]) for mode, r in results.items()}
    honest = all(true_error[mode] <= r.error_estimate for mode, r in results.items())

    detail = (
        f"c(measure)={c_measure!r}, c(literal)={c_literal!r}; "
        f"area(measure)={results['measure'].value!r}, "
        f"area(literal)={results['literal'].value!r}; "
        f"matching mode(s): {matching_modes}; "
        + ", ".join(
            f"{mode} true error {true_error[mode]:.2g} vs estimate "
            f"{r.error_estimate:.2g}"
            for mode, r in results.items()
        )
        + f"; {elapsed:.0f}s"
    )

    near_miss = any(
        abs(r.value - REPORTED_GAUSS_AREA) / REPORTED_GAUSS_AREA <= 1e-4
        for r in results.values()
    )
    if matching_modes:
        ok = bool(matching_conventions) and honest and elapsed <= 600.0
    elif not near_miss:
        # documented fallback: record both modes as regression fixtures with
        # tight error estimates (see the leaf-area weight-mode discussion)
        ok = all(r.error_estimate <= 1e-7 for r in results.values())
    else:
        ok = False

    with capsys.disabled():
        _report("criterion 4: Gaussian leaf-patch area", ok, detail)
    assert ok, detail
    assert "measure" in matching_conventions
    assert "literal" in matching_modes
    assert honest, true_error
