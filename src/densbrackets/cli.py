"""Command-line interface: single computations and batch table runs.

Every command writes exactly one JSON document to stdout (JSON lines for
``table``); diagnostics go to stderr.  Exit codes: 0 success, 1 input error,
2 ran but did not converge: no usable mass, a likely divergent integral, or
(for ``table``) not all jobs passed.

Numeric flags accept expressions without free variables, so ``--s-lo pi/4``
works; integer flags and keys must evaluate to a finite integer.  Expression
flags use the library grammar verbatim; coordinates are spelled ``x, y``
(square), ``t1, t2`` (torus) and ``theta, phi`` (sphere).

Batch configs are INI-style files, one section per job, e.g.::

    [row1]
    kind = bracket            ; bracket | mass | normalize | area
    domain = square
    tau = 1
    rho = 1
    f = x
    h = y
    expected = 1              ; optional, an expression
    tol_abs = 1e-8            ; acceptance tolerance against `expected`
    tol_rel = 0
    quad_abs_tol = 1e-10      ; optional quadrature overrides
    quad_rel_tol = 1e-10

Area jobs take ``rho``, ``theta_map``, ``phi_map``, ``s_lo``, ``s_hi``,
``t_lo``, ``t_hi`` and optional ``weight_mode`` (measure | literal).  A job
passes when it converged and, if ``expected`` is given,
``|value - expected| <= tol_abs + tol_rel * |expected|``.  All jobs are
validated before any of them runs.

The ``bracket`` and ``area`` commands are built as one-row jobs by the same
builder, which reads these keys (default in parentheses):

* every kind: ``kind``, ``expected``, ``tol_abs`` (0), ``tol_rel`` (0),
  ``quad_abs_tol`` and ``quad_rel_tol`` (1e-10; 1e-7 for areas) and
  ``quad_max_subdivisions`` (2000);
* ``bracket``: ``domain``, ``tau`` (1), ``rho``, ``f``, ``h`` and
  ``normalize`` (true);
* ``mass`` and ``normalize``: ``domain`` and ``rho``;
* ``area``: ``rho``, ``theta_map``, ``phi_map``, ``s_lo``, ``s_hi``,
  ``t_lo``, ``t_hi``, ``weight_mode`` (measure) and ``quad_max_evals``
  (the library's budget).

Any other key is an input error that names the job and the key.  A key
set in ``[DEFAULT]`` reaches every job; it must be read by some kind, and
a job whose kind does not read it ignores it.

The commands' ``--abs-tol``, ``--rel-tol``, ``--max-subdivisions`` and
``--max-evals`` fill the ``quad_*`` keys, ``--no-normalize`` sets
``normalize`` to false, and every other flag fills the key of its name.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import dataclass
from typing import Any, Callable

from . import __version__
from .areas import DEFAULT_TOL, AreaProblem, FlowMap, WEIGHT_MODES, area
from .brackets import BracketProblem, bracket
from .expressions import Expr, ExpressionError, evaluate, parse
from .geometry import (
    GeometryError,
    NormalizationError,
    density_mass,
    domain_by_name,
    normalize,
)
from .quadrature import DivergentIntegralError, QuadSpec, QuadratureError

__all__ = ["main", "run_table"]


class CliInputError(Exception):
    """Bad flags or config; reported on stderr with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # route argparse failures to exit code 1
        raise CliInputError(message)


def _parse_expr(text: str, what: str) -> Expr:
    try:
        return parse(text)
    except ExpressionError as exc:
        raise CliInputError(f"invalid expression for {what}: {exc}") from exc


def _parse_number(text: str, what: str) -> float:
    try:
        return evaluate(parse(text), {})
    except ExpressionError as exc:
        raise CliInputError(f"invalid number for {what}: {exc}") from exc


def _parse_int(text: str, what: str) -> int:
    value = _parse_number(text, what)
    if not value.is_integer():  # also rejects inf and nan
        raise CliInputError(f"{what} must be an integer, got {text!r}")
    return int(value)


def _emit(payload: dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="densbrackets",
        description="Poisson brackets of density functionals and leaf areas",
    )
    parser.add_argument(
        "--version", action="version", version=f"densbrackets {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bracket", help="Poisson bracket of two functionals")
    b.add_argument("--domain", required=True, choices=["square", "torus", "sphere"])
    b.add_argument("--tau", help="conformal factor expression")
    b.add_argument("--rho", required=True, help="density expression")
    b.add_argument("--f", required=True, help="first function expression")
    b.add_argument("--h", required=True, help="second function expression")
    b.add_argument("--abs-tol")
    b.add_argument("--rel-tol")
    b.add_argument("--max-subdivisions")
    b.add_argument(
        "--no-normalize",
        dest="normalize",
        action="store_false",
        default=None,
        help="integrate the density as given instead of rescaling to mass 1",
    )

    a = sub.add_parser("area", help="symplectic area of a leaf patch")
    a.add_argument("--rho", required=True, help="normalized sphere density")
    a.add_argument("--theta-map", required=True)
    a.add_argument("--phi-map", required=True)
    a.add_argument("--s-lo", required=True)
    a.add_argument("--s-hi", required=True)
    a.add_argument("--t-lo", required=True)
    a.add_argument("--t-hi", required=True)
    a.add_argument("--weight-mode", choices=list(WEIGHT_MODES))
    a.add_argument("--abs-tol")
    a.add_argument("--rel-tol")
    a.add_argument("--max-subdivisions")
    a.add_argument("--max-evals")

    t = sub.add_parser("table", help="run a batch config, one JSON line per job")
    t.add_argument("config", help="path to an INI-style job file")

    return parser


# -- jobs ----------------------------------------------------------------------

# The keys that every job reads, and those that only its kind reads.
_COMMON_KEYS = {
    "kind", "expected", "tol_abs", "tol_rel", "quad_abs_tol", "quad_rel_tol",
    "quad_max_subdivisions",
}
_KIND_KEYS = {
    "bracket": {"domain", "tau", "rho", "f", "h", "normalize"},
    "mass": {"domain", "rho"},
    "normalize": {"domain", "rho"},
    "area": {
        "rho", "theta_map", "phi_map", "s_lo", "s_hi", "t_lo", "t_hi",
        "weight_mode", "quad_max_evals",
    },
}
_JOB_KINDS = tuple(_KIND_KEYS)
_ANY_KIND_KEYS = _COMMON_KEYS.union(*_KIND_KEYS.values())

# Single-command flags (argparse dests) that fill a job key of another name.
_FLAG_KEYS = {
    "command": "kind",
    "abs_tol": "quad_abs_tol",
    "rel_tol": "quad_rel_tol",
    "max_subdivisions": "quad_max_subdivisions",
    "max_evals": "quad_max_evals",
}
_KEY_FLAGS = {key: flag for flag, key in _FLAG_KEYS.items()}


@dataclass(frozen=True)
class _Job:
    label: str
    kind: str
    run: Callable[[], dict[str, Any]]
    expected: float | None
    tol_abs: float
    tol_rel: float


def _result_fields(r) -> dict[str, Any]:
    return {
        "value": r.value,
        "error_estimate": r.error_estimate,
        "n_evals": r.n_evals,
        "converged": r.converged,
    }


def _build_job(
    label: str,
    section,
    where: Callable[[str], str] | None = None,
    inherited: frozenset[str] = frozenset(),
) -> _Job:
    """Parse and validate one job; ``where(key)`` names a key in messages.

    ``inherited`` holds the keys that ``section`` takes from ``[DEFAULT]``;
    they need not be read by the job's kind.
    """
    where = where or (lambda key: f"{label}.{key}")

    def text(key: str, default: str | None = None) -> str:
        value = section.get(key, default)
        if value is None:
            raise CliInputError(f"job '{label}' is missing required key '{key}'")
        return value

    def expr(key: str, default: str | None = None) -> Expr:
        return _parse_expr(text(key, default), where(key))

    # number and integer keys return a default as it is when absent
    def number(key: str, default: float | None = None) -> float:
        if default is not None and section.get(key) is None:
            return default
        return _parse_number(text(key), where(key))

    def integer(key: str, default: int | None = None) -> int:
        if default is not None and section.get(key) is None:
            return default
        return _parse_int(text(key), where(key))

    kind = text("kind")
    if kind not in _JOB_KINDS:
        raise CliInputError(
            f"job '{label}' has unknown kind {kind!r}; expected one of {_JOB_KINDS}"
        )
    unknown = sorted(set(section) - inherited - _COMMON_KEYS - _KIND_KEYS[kind])
    if unknown:
        raise CliInputError(
            f"job '{label}' has keys that kind {kind!r} does not read: "
            + ", ".join(map(repr, unknown))
        )
    expected = None if section.get("expected") is None else number("expected")
    tol_abs = number("tol_abs", 0.0)
    tol_rel = number("tol_rel", 0.0)
    if kind == "area":
        default = QuadSpec(abs_tol=DEFAULT_TOL, rel_tol=DEFAULT_TOL)
    else:
        default = QuadSpec()
    max_evals = None
    if section.get("quad_max_evals") is not None:
        max_evals = integer("quad_max_evals")
    spec = QuadSpec(
        abs_tol=number("quad_abs_tol", default.abs_tol),
        rel_tol=number("quad_rel_tol", default.rel_tol),
        max_subdivisions=integer("quad_max_subdivisions", default.max_subdivisions),
        max_evals=max_evals,
    )

    if kind == "bracket":
        try:
            auto_normalize = section.getboolean("normalize", fallback=True)
        except ValueError as exc:
            raise CliInputError(f"invalid boolean for {where('normalize')}: {exc}") from exc
        problem = BracketProblem(
            domain=domain_by_name(text("domain")),
            tau=expr("tau", "1"),
            rho=expr("rho"),
            f=expr("f"),
            h=expr("h"),
            auto_normalize=auto_normalize,
        )
        problem.validate()

        def run() -> dict[str, Any]:
            r = bracket(problem, spec)
            return {**_result_fields(r), "normalization_constant": r.normalization_constant}

    elif kind == "mass":
        domain = domain_by_name(text("domain"))
        rho = expr("rho")

        def run() -> dict[str, Any]:
            return _result_fields(density_mass(domain, rho, spec))

    elif kind == "normalize":
        domain = domain_by_name(text("domain"))
        rho = expr("rho")

        def run() -> dict[str, Any]:
            density = normalize(domain, rho, spec)
            return {
                **_result_fields(density.mass),
                "n_evals": density.scale.n_evals + density.mass.n_evals,
                "scale": density.scale.value,
            }

    else:  # area
        problem = AreaProblem(
            rho=expr("rho"),
            flow=FlowMap(theta_map=expr("theta_map"), phi_map=expr("phi_map")),
            s_interval=(number("s_lo"), number("s_hi")),
            t_interval=(number("t_lo"), number("t_hi")),
            weight_mode=text("weight_mode", "measure"),
        )
        problem.validate()

        def run() -> dict[str, Any]:
            r = area(problem, spec)
            return {**_result_fields(r), "weight_mode": problem.weight_mode}

    return _Job(
        label=label,
        kind=kind,
        run=run,
        expected=expected,
        tol_abs=tol_abs,
        tol_rel=tol_rel,
    )


def _run_command(args: argparse.Namespace) -> int:
    """Run a ``bracket`` or ``area`` command as a one-row job; emit its result."""
    cp = configparser.RawConfigParser()
    cp.read_dict(
        {
            args.command: {
                _FLAG_KEYS.get(dest, dest): value
                for dest, value in vars(args).items()
                if value is not None
            }
        }
    )
    job = _build_job(
        args.command,
        cp[args.command],
        lambda key: "--" + _KEY_FLAGS.get(key, key).replace("_", "-"),
    )
    payload = job.run()
    if job.kind == "area":
        payload["area"] = payload.pop("value")
    _emit(payload)
    return 0 if payload["converged"] else 2


def load_jobs(path: str) -> list[_Job]:
    """Parse and validate a job config; raises CliInputError before any job runs."""
    cp = configparser.RawConfigParser()
    # the same file with [DEFAULT] read as a plain section: each job's own
    # keys.  cp rejects what a strict parser must; a repeated [DEFAULT] is
    # merged there, and so it is here.
    own = configparser.RawConfigParser(default_section="\n", strict=False)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        cp.read_string(text, path)
        own.read_string(text, path)
    except OSError as exc:
        raise CliInputError(f"cannot read config {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise CliInputError(f"malformed config {path!r}: {exc}") from exc
    defaults = frozenset(cp.defaults())
    unknown = sorted(defaults - _ANY_KIND_KEYS)
    if unknown:
        raise CliInputError(
            "[DEFAULT] has keys that no job kind reads: " + ", ".join(map(repr, unknown))
        )
    try:
        return [
            _build_job(name, cp[name], inherited=defaults.difference(own[name]))
            for name in cp.sections()
        ]
    except (GeometryError, QuadratureError, ExpressionError) as exc:
        raise CliInputError(str(exc)) from exc


def run_table(args: argparse.Namespace) -> int:
    jobs = load_jobs(args.config)
    all_passed = True
    for job in jobs:
        line: dict[str, Any] = {"label": job.label, "kind": job.kind}
        try:
            line.update(job.run())
        except (GeometryError, ExpressionError, QuadratureError) as exc:
            print(f"job '{job.label}' failed: {exc}", file=sys.stderr)
            line.update({"error": str(exc), "converged": False})
        passed = bool(line.get("converged"))
        if job.expected is not None:
            line["expected"] = job.expected
            passed = passed and abs(line["value"] - job.expected) <= (
                job.tol_abs + job.tol_rel * abs(job.expected)
            )
        line["pass"] = passed
        all_passed = all_passed and passed
        _emit(line)
    return 0 if all_passed else 2


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "table":
            return run_table(args)
        return _run_command(args)
    except CliInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NormalizationError, DivergentIntegralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ExpressionError, GeometryError, QuadratureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
