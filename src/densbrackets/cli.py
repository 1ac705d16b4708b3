"""Command-line interface: single computations and batch table runs.

Every command writes exactly one JSON document to stdout (JSON lines for
``table``); diagnostics go to stderr.  Exit codes: 0 success, 1 input error
(a density negative at a node of its mass integral included), 2 ran but
did not converge: an integral stopped short of its tolerance (out of
bisections or of the evaluation budget), no usable mass, a likely
divergent integral, or (for ``table``) not all jobs passed.  A count that
reaches the budget after every integral met its tolerance is a success.

Numeric flags accept expressions without free variables, so ``--s-lo pi/4``
works; integer flags and keys must evaluate to a finite integer.  Expression
flags use the library grammar verbatim; coordinates are spelled ``x, y``
(square), ``t1, t2`` (torus) and ``theta, phi`` (sphere).  A flag value may
start with ``-``: ``--f -x`` reads as ``--f=-x``.

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
``|value - expected| <= tol_abs + tol_rel * |expected|``, and neither
tolerance may be negative.  All jobs are validated before any of them
runs, and a load error names its job: by the key for a value that does not
parse (``row1.rho``), by the section otherwise (``job 'row1': unknown
domain 'cube'``).  An expression nested deeper than the interpreter's
recursion limit lets the program walk it is an input error: at parse time,
or (for a long chain of sums, products or powers that parses) when its job
runs, which ends a table there.

Every key is declared once, in the table ``_KEYS``: the kinds that read
it, its reader, its default and the help of its flag.  The config checks,
the job builder and the ``bracket`` and ``area`` commands read that table,
and a command is a one-row job.  These are the keys (default in
parentheses).  A key without a default is required, except ``expected``
and ``quad_max_evals``; a default takes effect only when the key is
absent, so a key that is set is always parsed and checked:

* every kind: ``kind``, ``expected``, ``tol_abs`` (0), ``tol_rel`` (0),
  ``quad_abs_tol`` and ``quad_rel_tol`` (1e-10; 1e-7 for areas) and
  ``quad_max_subdivisions`` (2000);
* ``bracket``: ``domain``, ``tau`` (1), ``rho``, ``f``, ``h`` and
  ``normalize`` (true);
* ``mass`` and ``normalize``: ``domain`` and ``rho``;
* ``area``: ``rho``, ``theta_map``, ``phi_map``, ``s_lo``, ``s_hi``,
  ``t_lo``, ``t_hi``, ``weight_mode`` (measure) and ``quad_max_evals``
  (the library's budget).

Any other key is an input error that names the job and the key, and so
is a ``quad_*`` value that ``QuadSpec`` refuses, such as ``quad_abs_tol =
0`` (``r.quad_abs_tol must be positive and finite, got 0.0``).  A key
set in ``[DEFAULT]`` reaches every job; it must be read by some kind, and
a job whose kind does not read it ignores it.  A job reads its keys in
the table's order and reports the first bad one.

A command's flags are its kind's keys but ``kind``, ``expected``,
``tol_abs`` and ``tol_rel``, in the table's order: ``--`` and the key
without ``quad_``, with ``-`` for ``_``, except ``--no-normalize``, which
sets ``normalize`` to false.  An error about a key names its flag.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import asdict, dataclass, replace
from typing import Any, Callable

from . import __version__
from .areas import DEFAULT_TOL, AreaProblem, FlowMap, IntervalError, WEIGHT_MODES, area
from .brackets import BracketProblem, bracket
from .expressions import Const, Expr, ExpressionError, evaluate, parse
from .geometry import (
    DOMAINS,
    GeometryError,
    NegativeDensityError,
    NormalizationError,
    density_mass,
    domain_by_name,
    normalize,
    require_domain_vars,
)
from .quadrature import DivergentIntegralError, QuadSpec, QuadratureError

__all__ = ["main", "run_table"]

# What the library raises for input it cannot compute with.
_LIBRARY_ERRORS = (ExpressionError, GeometryError, QuadratureError)


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


# -- jobs ----------------------------------------------------------------------

_REQUIRED = object()  # the default of a key that must be set

_BRACKET, _DENSITY, _AREA = ("bracket",), ("mass", "normalize"), ("area",)
_EVERY_KIND = _BRACKET + _DENSITY + _AREA


def _parse_tolerance(text: str, what: str) -> float:
    tol = _parse_number(text, what)
    if not tol >= 0.0:
        raise CliInputError(f"{what} must not be negative, got {tol!r}")
    return tol


def _parse_bool(text: str, what: str) -> bool:
    value = configparser.RawConfigParser.BOOLEAN_STATES.get(text.lower())
    if value is None:
        raise CliInputError(f"invalid boolean for {what}: Not a boolean: {text}")
    return value


def _parse_domain(text: str, what: str):
    return domain_by_name(text)


def _parse_text(text: str, what: str) -> str:
    return text


# Every job key: the kinds that read it, its reader (text, where) -> value,
# its default (taken only when the key is absent) and the help of its flag.
# Jobs read their keys in this order, and the commands list their flags in it.
_KEYS: dict[str, tuple[tuple[str, ...], Callable, Any, Any]] = {
    "kind": (_EVERY_KIND, _parse_text, _REQUIRED, None),
    "expected": (_EVERY_KIND, _parse_number, None, None),
    "tol_abs": (_EVERY_KIND, _parse_tolerance, 0.0, None),
    "tol_rel": (_EVERY_KIND, _parse_tolerance, 0.0, None),
    "domain": (_BRACKET + _DENSITY, _parse_domain, _REQUIRED, None),
    "tau": (_BRACKET, _parse_expr, Const(1.0), "conformal factor expression"),
    # --rho has a help text per command
    "rho": (_EVERY_KIND, _parse_expr, _REQUIRED,
            {"bracket": "density expression", "area": "normalized sphere density"}),
    "f": (_BRACKET, _parse_expr, _REQUIRED, "first function expression"),
    "h": (_BRACKET, _parse_expr, _REQUIRED, "second function expression"),
    "theta_map": (_AREA, _parse_expr, _REQUIRED, None),
    "phi_map": (_AREA, _parse_expr, _REQUIRED, None),
    "s_lo": (_AREA, _parse_number, _REQUIRED, None),
    "s_hi": (_AREA, _parse_number, _REQUIRED, None),
    "t_lo": (_AREA, _parse_number, _REQUIRED, None),
    "t_hi": (_AREA, _parse_number, _REQUIRED, None),
    "weight_mode": (_AREA, _parse_text, "measure", None),
    # quad_<field> sets that QuadSpec field; None keeps the kind's default
    "quad_abs_tol": (_EVERY_KIND, _parse_number, None, None),
    "quad_rel_tol": (_EVERY_KIND, _parse_number, None, None),
    "quad_max_subdivisions": (_EVERY_KIND, _parse_int, None, None),
    "normalize": (_BRACKET, _parse_bool, True,
                  "integrate the density as given instead of rescaling to mass 1"),
    "quad_max_evals": (_AREA, _parse_int, None, None),
}
_KIND_KEYS = {k: tuple(key for key in _KEYS if k in _KEYS[key][0]) for k in _EVERY_KIND}
# The keys that the commands set themselves or not at all.
_NOT_FLAGS = ("kind", "expected", "tol_abs", "tol_rel")
_CHOICES = {"domain": DOMAINS, "weight_mode": WEIGHT_MODES}


def _flag(key: str) -> str:
    """The command flag that fills ``key``."""
    if key == "normalize":
        return "--no-normalize"
    return "--" + key.removeprefix("quad_").replace("_", "-")


# The flags that take a value: every command flag but --no-normalize.
_VALUE_FLAGS = {_flag(k) for k in _KEYS if k not in _NOT_FLAGS + ("normalize",)}


def _glue_values(argv: list[str]) -> list[str]:
    """``--f -x`` as ``--f=-x``.  argparse takes a value that starts with
    '-' for an option unless it is a plain negative number, so ``-x`` and
    ``-1e-3`` would leave their flag without a value."""
    glued: list[str] = []
    for arg in argv:
        if (
            glued
            and glued[-1] in _VALUE_FLAGS
            and arg.startswith("-")
            and not arg.startswith("--")
            and arg != "-h"
        ):
            glued[-1] += "=" + arg
        else:
            glued.append(arg)
    return glued


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="densbrackets",
        description="Poisson brackets of density functionals and leaf areas",
    )
    parser.add_argument(
        "--version", action="version", version=f"densbrackets {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for kind, about in (
        ("bracket", "Poisson bracket of two functionals"),
        ("area", "symplectic area of a leaf patch"),
    ):
        command = sub.add_parser(kind, help=about)
        for key in _KIND_KEYS[kind]:
            if key in _NOT_FLAGS:
                continue
            _, _, default, help_text = _KEYS[key]
            help_text = help_text[kind] if isinstance(help_text, dict) else help_text
            flag = _flag(key)
            if key == "normalize":  # the flag can only turn it off
                extra = {"action": "store_const", "const": "false"}
            elif key in _CHOICES:
                extra = {"choices": list(_CHOICES[key])}
            else:
                extra = {"metavar": flag[2:].replace("-", "_").upper()}
            command.add_argument(
                flag, dest=key, required=default is _REQUIRED, help=help_text, **extra
            )

    t = sub.add_parser("table", help="run a batch config, one JSON line per job")
    t.add_argument("config", help="path to an INI-style job file")

    return parser


@dataclass(frozen=True)
class _Job:
    label: str
    kind: str
    run: Callable[[], dict[str, Any]]
    expected: float | None
    tol_abs: float
    tol_rel: float


def _build_job(
    label: str,
    section,
    where: Callable[[str], str] | None = None,
    inherited: frozenset[str] = frozenset(),
) -> _Job:
    """Parse and validate one job; ``where(key)`` names a key in messages.

    ``section`` maps keys to their text.  ``inherited`` holds the keys that
    it takes from ``[DEFAULT]``; they need not be read by the job's kind.
    """
    where = where or (lambda key: f"{label}.{key}")
    kind = section.get("kind")
    if kind is None:
        raise CliInputError(f"job '{label}' is missing required key 'kind'")
    if kind not in _KIND_KEYS:
        raise CliInputError(
            f"job '{label}' has unknown kind {kind!r}; expected one of {_EVERY_KIND}"
        )
    unknown = sorted(set(section) - inherited - set(_KIND_KEYS[kind]))
    if unknown:
        raise CliInputError(
            f"job '{label}' has keys that kind {kind!r} does not read: "
            + ", ".join(map(repr, unknown))
        )
    spec = QuadSpec()
    if kind == "area":
        spec = QuadSpec(abs_tol=DEFAULT_TOL, rel_tol=DEFAULT_TOL)
    job = {}
    for key in _KIND_KEYS[kind]:
        _, parse_key, default, _ = _KEYS[key]
        text = section.get(key)
        if text is None and default is _REQUIRED:
            raise CliInputError(f"job '{label}' is missing required key '{key}'")
        job[key] = value = default if text is None else parse_key(text, where(key))
        field = key.removeprefix("quad_")
        if field != key and value is not None:
            # one field at a time, so that QuadSpec's check speaks of this key
            try:
                spec = replace(spec, **{field: value})
            except QuadratureError as exc:
                raise CliInputError(where(key) + str(exc).removeprefix(field)) from exc

    if kind == "bracket":
        problem = BracketProblem(
            job["domain"], job["tau"], job["rho"], job["f"], job["h"], job["normalize"]
        )
        problem.validate()

        def run() -> dict[str, Any]:
            return asdict(bracket(problem, spec))

    elif kind in _DENSITY:
        domain, rho = job["domain"], job["rho"]
        require_domain_vars(domain, rho, "density")

        def run() -> dict[str, Any]:
            if kind == "mass":
                return asdict(density_mass(domain, rho, spec))
            density = normalize(domain, rho, spec)
            return {
                **asdict(density.mass),
                "n_evals": density.scale.n_evals + density.mass.n_evals,
                "scale": density.scale.value,
            }

    else:  # area
        problem = AreaProblem(
            rho=job["rho"],
            flow=FlowMap(theta_map=job["theta_map"], phi_map=job["phi_map"]),
            s_interval=(job["s_lo"], job["s_hi"]),
            t_interval=(job["t_lo"], job["t_hi"]),
            weight_mode=job["weight_mode"],
        )
        try:
            problem.validate()
        except IntervalError as exc:
            axis = exc.field[0]  # the keys <axis>_lo and <axis>_hi fill it
            raise CliInputError(
                f"{where(axis + '_lo')}, {where(axis + '_hi')}: {exc}"
            ) from exc

        def run() -> dict[str, Any]:
            return {**asdict(area(problem, spec)), "weight_mode": problem.weight_mode}

    return _Job(label, kind, run, job["expected"], job["tol_abs"], job["tol_rel"])


def _run_command(args: argparse.Namespace) -> int:
    """Run a ``bracket`` or ``area`` command as a one-row job; emit its result."""
    section = {key: text for key, text in vars(args).items() if text is not None}
    section["kind"] = section.pop("command")
    job = _build_job(args.command, section, _flag)
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
    except (OSError, UnicodeDecodeError) as exc:
        raise CliInputError(f"cannot read config {path!r}: {exc}") from exc
    except configparser.Error as exc:
        raise CliInputError(f"malformed config {path!r}: {exc}") from exc
    defaults = frozenset(cp.defaults())
    unknown = sorted(defaults - _KEYS.keys())
    if unknown:
        raise CliInputError(
            "[DEFAULT] has keys that no job kind reads: " + ", ".join(map(repr, unknown))
        )
    jobs = []
    for name in cp.sections():
        inherited = defaults.difference(own[name])
        try:
            jobs.append(_build_job(name, cp[name], inherited=inherited))
        except _LIBRARY_ERRORS as exc:
            raise CliInputError(f"job '{name}': {exc}") from exc
    return jobs


def run_table(args: argparse.Namespace) -> int:
    jobs = load_jobs(args.config)
    all_passed = True
    for job in jobs:
        line: dict[str, Any] = {"label": job.label, "kind": job.kind}
        try:
            line.update(job.run())
        except _LIBRARY_ERRORS as exc:
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
        args = parser.parse_args(_glue_values(sys.argv[1:] if argv is None else argv))
        if args.command == "table":
            return run_table(args)
        return _run_command(args)
    except (NormalizationError, DivergentIntegralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        # a density negative at a node is an input error
        return 1 if isinstance(exc, NegativeDensityError) else 2
    except (CliInputError, *_LIBRARY_ERRORS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RecursionError:  # a tree walk on an expression nested too deeply
        print("error: an expression nests too deeply to process", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
