"""Seeded inputs for the benchmark workloads.

Every potential is a spec in the JSON form the command line accepts, and
becomes an object only through the public constructors ``scaled_tent``,
``constant`` and ``piecewise_linear``.  The ranges are narrow on
purpose: runs with different seeds should ask the solver for about the
same amount of work, so a new seed changes the inputs but not the load.
Every constant is negative and never zero, so its closed-form spectrum
(n*pi_p/ell)^p + c exercises the potential term of the phase equation.
"""

from __future__ import annotations

import random


def _tent(rng: random.Random) -> dict:
    # depth + rise/2 < 0: nonpositive, single barrier, one interior knot
    return {"type": "scaled_tent", "depth": -rng.uniform(4.5, 5.5),
            "rise": rng.uniform(3.5, 4.5)}


def _constant(rng: random.Random) -> dict:
    return {"type": "constant", "value": -rng.uniform(1.0, 3.0)}


def _nonpositive_five_knots(rng: random.Random) -> dict:
    # one interior knot in each quarter keeps the pieces apart
    xs = [0.0] + [0.25 * k + rng.uniform(-0.08, 0.08) for k in (1, 2, 3)] + [1.0]
    return {"type": "piecewise_linear",
            "knots": [[x, -rng.uniform(0.5, 6.0)] for x in xs]}


def _nonnegative_well(rng: random.Random) -> dict:
    return {"type": "piecewise_linear",
            "knots": [[0.0, rng.uniform(3.0, 6.0)],
                      [rng.uniform(0.35, 0.65), rng.uniform(0.0, 1.0)],
                      [1.0, rng.uniform(3.0, 6.0)]]}


def potentials(seed: int, draw: int = 0) -> dict[str, dict]:
    """The named potential specs of one draw at ``seed``."""
    rng = random.Random(f"{seed}:{draw}")
    return {"tent": _tent(rng), "constant": _constant(rng),
            "pl5": _nonpositive_five_knots(rng), "well": _nonnegative_well(rng)}


def ptrig_table_x_max(seed: int) -> float:
    """Right end of the ``ptrig-table`` range: a little over one p-period."""
    return random.Random(f"{seed}:x_max").uniform(5.0, 6.0)


def build(api, spec: dict):
    """Build ``spec`` with the public constructors of the ``api`` module."""
    kind = spec["type"]
    if kind == "constant":
        return api.constant(spec["value"])
    if kind == "scaled_tent":
        return api.scaled_tent(spec["depth"], spec["rise"])
    if kind == "piecewise_linear":
        return api.piecewise_linear(spec["knots"])
    raise ValueError(f"unknown potential type {kind!r}")
