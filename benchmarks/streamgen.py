"""Seeded bracket problems for the ``bracket-stream`` workload, and their reference.

The generator owns its trees (nested tuples), so the package only ever sees
the printed text.  The same trees are evaluated here with plain numpy to give
an independent reference: a fixed-order tensor Gauss-Legendre rule over the
domain box, with df/du etc. from fourth-order central differences.  That path
shares nothing with the package's parser, differentiator, simplifier,
compiler or adaptive driver.

Trees are smooth on the whole real plane: ``sqrt`` and ``ln`` see
``1.5 + 0.25*sin(.)``, ``exp`` sees ``0.4*arctan(.)``, ``besseli0`` sees
``sin(.)``, divisors are ``2 + sin(.)`` and powers have exponent 2 or 3.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

FUNCTIONS = ("sin", "cos", "exp", "arctan", "erf", "sqrt", "ln", "besseli0")

_NP_FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "exp": np.exp,
    "arctan": np.arctan,
    "erf": np.vectorize(math.erf, otypes=[float]),
    "sqrt": np.sqrt,
    "ln": np.log,
    "besseli0": np.i0,
}

COORDS = {"square": ("x", "y"), "torus": ("t1", "t2"), "sphere": ("theta", "phi")}
BOXES = {
    "square": ((0.0, 1.0), (0.0, 1.0)),
    "torus": ((0.0, 2 * math.pi), (0.0, 2 * math.pi)),
    "sphere": ((0.0, math.pi), (0.0, 2 * math.pi)),
}
DOMAIN_ORDER = ("square", "torus", "sphere")

# Densities of the shipped tables and of the acceptance property pools, each
# as package text plus the same function in numpy.
DENSITIES = {
    "square": (
        ("1", lambda x, y: np.ones_like(x * y)),
        ("(3/2)*(x^2 + y^2)", lambda x, y: 1.5 * (x**2 + y**2)),
        ("exp(-(x^2 + y^2)/2)", lambda x, y: np.exp(-(x**2 + y**2) / 2)),
    ),
    "torus": (
        ("1", lambda a, b: np.ones_like(a * b)),
        ("(cos(t1) + cos(t2) + 2)/2", lambda a, b: (np.cos(a) + np.cos(b) + 2) / 2),
        ("exp(cos(t1) + cos(t2))", lambda a, b: np.exp(np.cos(a) + np.cos(b))),
    ),
    "sphere": (
        ("1", lambda th, ph: np.ones_like(th * ph)),
        (
            "(2/pi)*sin(theta)/(1 - cos(theta))",
            lambda th, ph: (2 / np.pi) * np.sin(th) / (1 - np.cos(th)) + 0 * ph,
        ),
        (
            "exp(sin(theta)/(cos(theta) - 1))",
            lambda th, ph: np.exp(np.sin(th) / (np.cos(th) - 1)) + 0 * ph,
        ),
        ("1 + sin(theta)^2/2", lambda th, ph: 1 + np.sin(th) ** 2 / 2 + 0 * ph),
    ),
}


@dataclass(frozen=True)
class Problem:
    domain: str
    rho_index: int
    f: tuple
    h: tuple

    @property
    def rho_text(self) -> str:
        return DENSITIES[self.domain][self.rho_index][0]

    @property
    def f_text(self) -> str:
        return to_text(self.f)

    @property
    def h_text(self) -> str:
        return to_text(self.h)


# -- trees ---------------------------------------------------------------------


def _leaves(domain: str) -> tuple[tuple, ...]:
    """Coordinates scaled to (0, 1), so that no domain's trees oscillate faster
    than the square's: an angle to 2*pi cubed inside a sine would."""
    return tuple(
        ("bin", "/", ("var", c), ("num", hi)) if hi != 1.0 else ("var", c)
        for c, (_, hi) in zip(COORDS[domain], BOXES[domain])
    )


def random_tree(rng: random.Random, depth: int, leaves: tuple[tuple, ...]) -> tuple:
    """A smooth random tree of at most ``depth`` operator levels."""
    if depth <= 0 or rng.random() < 0.2:
        if rng.random() < 0.55:
            return rng.choice(leaves)
        return ("num", round(rng.uniform(-2.0, 2.0), 2))
    if rng.random() < 0.35:
        fn = rng.choice(FUNCTIONS)
        child = random_tree(rng, depth - 1, leaves)
        if fn in ("sqrt", "ln"):
            child = ("bin", "+", ("num", 1.5), ("bin", "*", ("num", 0.25), ("call", "sin", child)))
        elif fn == "exp":
            child = ("bin", "*", ("num", 0.4), ("call", "arctan", child))
        elif fn == "besseli0":
            child = ("call", "sin", child)
        return ("call", fn, child)
    op = rng.choice("+-*/^")
    left = random_tree(rng, depth - 1, leaves)
    if op == "^":
        return ("bin", "^", left, ("num", float(rng.randint(2, 3))))
    right = random_tree(rng, depth - 1, leaves)
    if op == "/":
        right = ("bin", "+", ("num", 2.0), ("call", "sin", right))
    return ("bin", op, left, right)


def variables(tree: tuple) -> set[str]:
    kind = tree[0]
    if kind == "var":
        return {tree[1]}
    if kind == "num":
        return set()
    if kind == "call":
        return variables(tree[2])
    return variables(tree[2]) | variables(tree[3])


def to_text(tree: tuple) -> str:
    kind = tree[0]
    if kind == "var":
        return tree[1]
    if kind == "num":
        return f"({tree[1]!r})" if tree[1] < 0 else repr(tree[1])
    if kind == "call":
        return f"{tree[1]}({to_text(tree[2])})"
    return f"({to_text(tree[2])} {tree[1]} {to_text(tree[3])})"


def evaluate(tree: tuple, env: dict[str, np.ndarray]) -> np.ndarray:
    kind = tree[0]
    if kind == "var":
        return env[tree[1]]
    if kind == "num":
        return tree[1]
    if kind == "call":
        return _NP_FUNCTIONS[tree[1]](evaluate(tree[2], env))
    a = evaluate(tree[2], env)
    b = evaluate(tree[3], env)
    op = tree[1]
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "*":
        return a * b
    if op == "/":
        return a / b
    return a**b


def generate(seed: int, count: int) -> list[Problem]:
    """``count`` problems, deterministic in ``seed``.

    Domains and densities go in rotation, so a count divisible by 36 gives
    every (domain, density) pair the same number of problems.
    """
    rng = random.Random(seed)
    problems = []
    for i in range(count):
        domain = DOMAIN_ORDER[i % 3]
        leaves = _leaves(domain)
        while True:
            f = random_tree(rng, rng.randint(2, 3), leaves)
            h = random_tree(rng, rng.randint(2, 3), leaves)
            fv, hv = variables(f), variables(h)
            # Some f-coordinate differs from some h-coordinate; otherwise the
            # Jacobian vanishes identically.
            if fv and hv and len(fv | hv) == 2:
                break
        # Densities in rotation too: the torus exp(cos(t1) + cos(t2)) costs
        # several times the others, so a random draw would make the total cost
        # of a stream depend on the seed far more than the trees do.
        rho_index = (i // 3) % len(DENSITIES[domain])
        problems.append(Problem(domain, rho_index, f, h))
    return problems


# -- reference -------------------------------------------------------------------

_FD_STEP = 1e-3


def _partials(tree: tuple, coords: tuple[str, str], U, V) -> tuple[np.ndarray, np.ndarray]:
    """(d/du, d/dv) of ``tree`` at (U, V) by fourth-order central differences."""
    u, v = coords
    out = []
    for axis in (u, v):
        acc = 0.0
        for offset, weight in ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0)):
            env = {u: U, v: V}
            env[axis] = env[axis] + offset * _FD_STEP
            acc = acc + weight * evaluate(tree, env)
        out.append(np.broadcast_to(acc, np.broadcast_shapes(U.shape, V.shape)) / (12 * _FD_STEP))
    return out[0], out[1]


def reference(problem: Problem, order: int = 64) -> tuple[float, float]:
    """(bracket, scale) from an order x order Gauss-Legendre tensor rule.

    The bracket of a normalized density is ``int(J rho w) / int(rho w)`` with
    ``J = f_u h_v - f_v h_u``; the prefactor cancels.  ``scale`` is the same
    ratio with ``|f_u h_v| + |f_v h_u|`` in place of ``J``, the size against
    which a deviation is judged even where the two terms cancel.
    """
    nodes, weights = np.polynomial.legendre.leggauss(order)
    (ulo, uhi), (vlo, vhi) = BOXES[problem.domain]
    U = (0.5 * (ulo + uhi) + 0.5 * (uhi - ulo) * nodes)[:, None]
    V = (0.5 * (vlo + vhi) + 0.5 * (vhi - vlo) * nodes)[None, :]
    W = np.outer(weights, weights) * 0.25 * (uhi - ulo) * (vhi - vlo)
    coords = COORDS[problem.domain]
    fu, fv = _partials(problem.f, coords, U, V)
    hu, hv = _partials(problem.h, coords, U, V)
    rho = DENSITIES[problem.domain][problem.rho_index][1](U, V)
    if problem.domain == "sphere":
        rho = rho * np.sin(U)
    mass = float(np.sum(W * rho))
    value = np.sum(W * (fu * hv - fv * hu) * rho)
    scale = np.sum(W * (np.abs(fu * hv) + np.abs(fv * hu)) * rho)
    return float(value) / mass, float(scale) / mass
