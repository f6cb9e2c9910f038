"""Continuous potentials on [0, ell] and their shape classification.

Every potential is stored canonically as a piecewise-linear function on
strictly increasing knots covering its domain; the constant, tabulated
and tent families are special knot layouts.  Evaluation, restriction
and min/max are therefore exact.  Shape claims (single well, single
barrier, monotone, constant) are exact from the knots too: the function
is monotone between knots and attains its extrema on them.
"""

from __future__ import annotations

import enum
import json
import math
from bisect import bisect_right
from collections.abc import Mapping
from dataclasses import dataclass, replace

from .errors import DomainError, PotentialParseError, is_array, map_array

# knot values equal within tolerance count as a plateau
MONOTONE_TOL = 1e-12


class Shape(str, enum.Enum):
    SINGLE_WELL = "single_well"
    SINGLE_BARRIER = "single_barrier"
    MONOTONE_INCREASING = "monotone_increasing"
    MONOTONE_DECREASING = "monotone_decreasing"
    CONSTANT = "constant"
    NEITHER = "neither"


# shapes that satisfy the non-strict single-barrier definition
# (nondecreasing up to some x0, nonincreasing after)
BARRIER_LIKE = frozenset({Shape.SINGLE_BARRIER, Shape.MONOTONE_INCREASING,
                          Shape.MONOTONE_DECREASING, Shape.CONSTANT})
# mirrored set for the single-well definition
WELL_LIKE = frozenset({Shape.SINGLE_WELL, Shape.MONOTONE_INCREASING,
                       Shape.MONOTONE_DECREASING, Shape.CONSTANT})


@dataclass(frozen=True)
class Potential:
    """Piecewise-linear potential on [0, domain_end].

    ``kind`` records how the object was built (constant, explicit knots,
    sampled table, or a built-in family); ``params`` keeps the family
    parameters for reporting.  Instances are immutable and evaluation is
    pure, so they are safe to share across threads.
    """

    kind: str
    xs: tuple[float, ...]
    qs: tuple[float, ...]
    params: tuple[tuple[str, float], ...] = ()
    domain_end: float = 1.0

    def __post_init__(self):
        if len(self.xs) != len(self.qs) or len(self.xs) < 2:
            raise DomainError("potential needs matching xs/qs with >= 2 knots")
        if self.xs[0] != 0.0 or self.xs[-1] != self.domain_end:
            raise DomainError("knots must cover [0, domain_end]")
        if any(b <= a for a, b in zip(self.xs, self.xs[1:])):
            raise DomainError("knot abscissae must be strictly increasing")
        if not all(map(math.isfinite, self.xs + self.qs)):
            raise DomainError("knot values must be finite")

    def __call__(self, x):
        """q(x) by :meth:`value`: a float, or an ndarray for an array."""
        if is_array(x):
            return map_array(lambda v: (self.value(v),), x, 1)[0]
        return self.value(float(x))

    def value(self, x: float) -> float:
        """Scalar evaluation, by the affine piece that holds x."""
        xs = self.xs
        if x <= 0.0:
            if x < -1e-12:
                raise DomainError("evaluation outside [0, domain_end]")
            return self.qs[0]
        if not x < xs[-1]:  # NaN included
            if not x <= xs[-1] + 1e-12:
                raise DomainError("evaluation outside [0, domain_end]")
            return self.qs[-1]
        x0, x1, q0, dq = self.piece(x)
        return q0 + ((x - x0) / (x1 - x0)) * dq

    def piece(self, x: float) -> tuple[float, float, float, float]:
        """The affine piece [x0, x1] that holds x in [0, domain_end), as
        (x0, x1, q0, dq): q = q0 + ((x - x0) / (x1 - x0)) * dq there,
        the arithmetic of :meth:`value`.  A knot opens the piece to its
        right, so ``value`` at x1 reads the next piece."""
        xs = self.xs
        i = bisect_right(xs, x) - 1
        q0 = self.qs[i]
        return xs[i], xs[i + 1], q0, self.qs[i + 1] - q0

    def interior_knots(self) -> tuple[float, ...]:
        """Breakpoints strictly inside the domain (integrator step bounds)."""
        return self.xs[1:-1]

    def min_max(self) -> tuple[float, float]:
        """Exact range over the domain (attained at knots)."""
        return min(self.qs), max(self.qs)

    def shifted(self, c: float) -> "Potential":
        """The potential q + c on the same domain."""
        qs = tuple(q + c for q in self.qs)
        params = tuple((k, v + c) if k in ("value", "depth") else (k, v)
                       for k, v in self.params)
        kind = self.kind
        if kind == "builtin_family" and dict(params).get("depth", -1.0) >= 0.0:
            # no longer expressible in the tent family's schema
            kind, params = "piecewise_linear", ()
        return replace(self, kind=kind, qs=qs, params=params)

    def to_spec(self) -> dict:
        """Round-trippable document for reports (parse_potential_spec form)."""
        if self.kind == "constant":
            return {"type": "constant", "value": self.qs[0]}
        if self.kind == "builtin_family":
            return {"type": "scaled_tent", **{k: v for k, v in self.params}}
        if self.kind == "sampled_table":
            return {"type": "table", "xs": list(self.xs), "qs": list(self.qs)}
        return {"type": "piecewise_linear",
                "knots": [[x, q] for x, q in zip(self.xs, self.qs)]}


@dataclass(frozen=True)
class ShapeCertificate:
    """Shape report for one potential, exact from its knots.

    ``x0`` is the midpoint of the extremal plateau (maximum for
    barrier-like shapes, minimum for a single well), so it lies on a
    knot or halfway between two; a NEITHER shape has no single turning
    point and reports ``x0 = None``.  ``q_star`` is min(q(0), q(end)).
    """

    shape: Shape
    x0: float | None
    nonpositive: bool
    nonnegative: bool
    q_star: float
    q0: float
    q1: float

    def as_dict(self) -> dict:
        return {"shape": self.shape.value, "x0": self.x0,
                "nonpositive": self.nonpositive,
                "nonnegative": self.nonnegative,
                "q_star": self.q_star, "q0": self.q0, "q1": self.q1}


def constant(value: float) -> Potential:
    return Potential(kind="constant", xs=(0.0, 1.0),
                     qs=(float(value), float(value)),
                     params=(("value", float(value)),))


def piecewise_linear(knots) -> Potential:
    xs = tuple(float(x) for x, _ in knots)
    qs = tuple(float(q) for _, q in knots)
    return Potential(kind="piecewise_linear", xs=xs, qs=qs)


def sampled_table(xs, qs) -> Potential:
    return Potential(kind="sampled_table",
                     xs=tuple(float(x) for x in xs),
                     qs=tuple(float(q) for q in qs))


def scaled_tent(depth: float, rise: float) -> Potential:
    """q(x) = depth + rise * min(x, 1 - x) with depth < 0 and rise >= 0."""
    depth, rise = float(depth), float(rise)
    if not (math.isfinite(depth) and depth < 0.0):
        raise DomainError(f"tent depth must be negative, got {depth}")
    if not (math.isfinite(rise) and rise >= 0.0):
        raise DomainError(f"tent rise must be nonnegative, got {rise}")
    return Potential(kind="builtin_family",
                     xs=(0.0, 0.5, 1.0),
                     qs=(depth, depth + 0.5 * rise, depth),
                     params=(("depth", depth), ("rise", rise)))


def restrict(q: Potential, ell: float) -> Potential:
    """The same function reinterpreted on [0, ell], 0 < ell <= domain_end."""
    ell = float(ell)
    if not (0.0 < ell <= q.domain_end):
        raise DomainError(
            f"restriction length must lie in (0, {q.domain_end}], got {ell}")
    if ell == q.domain_end:
        return q
    keep = [i for i, x in enumerate(q.xs) if x < ell]
    xs = tuple(q.xs[i] for i in keep) + (ell,)
    qs = tuple(q.qs[i] for i in keep) + (q.value(ell),)
    kind = q.kind if q.kind == "constant" else "piecewise_linear"
    return Potential(kind=kind, xs=xs, qs=qs, params=q.params,
                     domain_end=ell)


# run-length sign patterns of the knot differences, plateaus dropped
_SHAPE_OF_RUNS = {(): Shape.CONSTANT, (1,): Shape.MONOTONE_INCREASING,
                  (-1,): Shape.MONOTONE_DECREASING,
                  (1, -1): Shape.SINGLE_BARRIER, (-1, 1): Shape.SINGLE_WELL}


def classify(q: Potential) -> ShapeCertificate:
    """Certify monotone structure, extremum and signs from the knots.

    q is linear between consecutive knots, so the signs of the knot
    differences decide its shape, and its extrema and signs sit on
    knots.  Plateaus (consecutive knot values equal within tolerance)
    count as both nondecreasing and nonincreasing, so a constant
    classifies as a degenerate barrier and well at once and is reported
    as CONSTANT.  The turning point of a multi-knot extremal plateau is
    its midpoint, a deterministic choice that keeps reports
    reproducible.  A NEITHER shape gets no turning point.
    """
    xs, vals = q.xs, q.qs
    runs: list[int] = []
    for a, b in zip(vals, vals[1:]):
        d = b - a
        sgn = 1 if d > MONOTONE_TOL else -1 if d < -MONOTONE_TOL else 0
        if sgn and (not runs or runs[-1] != sgn):
            runs.append(sgn)
    shape = _SHAPE_OF_RUNS.get(tuple(runs), Shape.NEITHER)

    if shape is Shape.NEITHER:
        x0 = None
    else:
        if shape is Shape.SINGLE_WELL:
            extremum = min(vals)
            plateau = [x for x, v in zip(xs, vals)
                       if v <= extremum + MONOTONE_TOL]
        else:
            extremum = max(vals)
            plateau = [x for x, v in zip(xs, vals)
                       if v >= extremum - MONOTONE_TOL]
        x0 = 0.5 * (plateau[0] + plateau[-1])

    q0, q1 = vals[0], vals[-1]
    return ShapeCertificate(
        shape=shape,
        x0=x0,
        nonpositive=max(vals) <= MONOTONE_TOL,
        nonnegative=min(vals) >= -MONOTONE_TOL,
        q_star=min(q0, q1),
        q0=q0,
        q1=q1,
    )


_SPEC_TYPES = ("constant", "piecewise_linear", "table", "scaled_tent")


def _require_number(obj, name: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise PotentialParseError(f"expected a number, got {obj!r}", name)
    v = float(obj)
    if not math.isfinite(v):
        raise PotentialParseError(f"non-finite value {obj!r}", name)
    return v


def parse_potential_spec(document: str | Mapping) -> Potential:
    """Build a potential from a spec document (JSON text or mapping).

    Schema: an object with "type" in {"constant", "piecewise_linear",
    "table", "scaled_tent"}.  "constant" carries "value";
    "piecewise_linear" carries "knots" as [x, q] pairs with strictly
    increasing x covering [0, 1]; "table" carries parallel "xs"/"qs"
    arrays (linear interpolation); "scaled_tent" carries "depth" < 0 and
    "rise" >= 0 encoding q(x) = depth + rise * min(x, 1 - x).
    """
    if isinstance(document, str):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise PotentialParseError(f"invalid JSON: {exc}", "document") from exc
    if not isinstance(document, Mapping):
        raise PotentialParseError("potential spec must be an object", "document")

    kind = document.get("type")
    if kind not in _SPEC_TYPES:
        raise PotentialParseError(
            f"unknown type {kind!r}; expected one of {_SPEC_TYPES}", "type")

    if kind == "constant":
        return constant(_require_number(document.get("value"), "value"))

    if kind == "scaled_tent":
        depth = _require_number(document.get("depth"), "depth")
        rise = _require_number(document.get("rise"), "rise")
        if depth >= 0.0:
            raise PotentialParseError(f"depth must be negative, got {depth}", "depth")
        if rise < 0.0:
            raise PotentialParseError(f"rise must be nonnegative, got {rise}", "rise")
        return scaled_tent(depth, rise)

    if kind == "piecewise_linear":
        knots = document.get("knots")
        if not isinstance(knots, (list, tuple)) or len(knots) < 2:
            raise PotentialParseError("knots must be a list of >= 2 [x, q] pairs",
                                      "knots")
        xs, qs = [], []
        for i, pair in enumerate(knots):
            loc = f"knots[{i}]"
            if not isinstance(pair, (list, tuple)) or len(pair) != 2:
                raise PotentialParseError("each knot is an [x, q] pair", loc)
            xs.append(_require_number(pair[0], loc + ".x"))
            qs.append(_require_number(pair[1], loc + ".q"))
    else:  # table
        xs = document.get("xs")
        qs = document.get("qs")
        if not isinstance(xs, (list, tuple)) or not isinstance(qs, (list, tuple)):
            raise PotentialParseError("table needs parallel 'xs' and 'qs' arrays", "xs")
        if len(xs) != len(qs):
            raise PotentialParseError(
                f"xs has {len(xs)} entries but qs has {len(qs)}", "qs")
        if len(xs) < 2:
            raise PotentialParseError("table needs at least 2 nodes", "xs")
        xs = [_require_number(v, f"xs[{i}]") for i, v in enumerate(xs)]
        qs = [_require_number(v, f"qs[{i}]") for i, v in enumerate(qs)]

    if xs[0] != 0.0 or xs[-1] != 1.0:
        raise PotentialParseError("abscissae must start at 0 and end at 1", "knots")
    for i in range(1, len(xs)):
        if xs[i] <= xs[i - 1]:
            raise PotentialParseError(
                f"abscissae must be strictly increasing, x[{i}]={xs[i]} "
                f"after x[{i - 1}]={xs[i - 1]}", f"knots[{i}]")

    if kind == "piecewise_linear":
        return piecewise_linear(list(zip(xs, qs)))
    return sampled_table(xs, qs)
