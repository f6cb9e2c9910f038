"""Verification harnesses for the eigenvalue-ratio statements.

Each harness checks the hypotheses of one statement on a concrete
potential, scans the quantified variable (``rho_points`` values of the
spectral parameter, the index pairs up to ``n_max``, or ``ell_points``
interval lengths), and emits a machine-readable certificate with one
margin per scan point:

  T1  scaled-phase sensitivity: theta's rho-derivative at the turning
      point x0 is nonpositive once rho^p >= -2 q(0), for nonpositive q
      nondecreasing on [0, x0].
  T2  ratio lower bound: lambda_n / lambda_m >= n^p / m^p for
      nonpositive single-barrier q, restricted to pairs with
      lambda_m >= -2 q*, q* = min(q(0), q(1)).
  T3  truncated intervals: there is an ell_0 in (0, 1], bounded by
      (-p / (3 q*))^(1/p), such that on [0, ell] with ell <= ell_0 the
      first eigenvalue is positive and the ratio lower bound holds for
      every pair.
  R1  mirrored regime: nonnegative single-well q gives the upper bound
      lambda_n / lambda_m <= n^p / m^p.

Inequalities are asserted with explicit slack (relative for ratios,
absolute for the sensitivity sign) so that "violated" is distinguished
from solver noise; the slack used is printed in every certificate.
A solve that fails (``SearchError`` or ``IntegrationError``) leaves its
point uncomputed: a noted gap, never a violation, and a certificate with
one is inconclusive unless a computed point violates its bound.  A
number that was not computed is None (JSON null), never NaN.
Certificates are deterministic: identical inputs and configuration
produce identical bytes.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, replace

from .config import READS, HarnessConfig
from .eigensolver import Eigenpair, find_eigenvalue
from .errors import SOLVE_FAILED
from .potentials import (BARRIER_LIKE, WELL_LIKE, Potential, Shape,
                         ShapeCertificate, classify, restrict)
from .prufer import integrate_sensitivity
from .ptrig import PContext

VERIFIED = "verified"
VIOLATED = "violated"
INCONCLUSIVE = "inconclusive"

CSV_HEADER = ("theorem_id", "quantity", "rho", "ell", "m", "n",
              "value", "bound", "margin", "in_hypothesis", "satisfied", "note")


@dataclass(frozen=True)
class ScanPoint:
    """One scanned inequality instance.

    ``margin`` is signed so that nonnegative means satisfied with room;
    points outside the statement's hypothesis are recorded but never
    count toward the verdict.  ``value`` and ``margin`` are None at a
    point whose solve failed, which is out of hypothesis.
    """

    quantity: str
    inputs: tuple[tuple[str, float], ...]
    value: float | None
    bound: float
    margin: float | None
    in_hypothesis: bool
    satisfied: bool
    note: str = ""

    def csv_row(self, theorem_id: str) -> tuple:
        """The ``CSV_HEADER`` cells as raw values; None where the point
        has no such input."""
        cols = dict(self.inputs)
        return (theorem_id, self.quantity, cols.get("rho"), cols.get("ell"),
                cols.get("m"), cols.get("n"), self.value, self.bound,
                self.margin, self.in_hypothesis, self.satisfied, self.note)


@dataclass(frozen=True)
class TheoremCertificate:
    """Hypotheses, scan table, verdict and margins for one statement.

    ``worst_margin`` is the least margin over the points in hypothesis,
    None when no point is.
    """

    theorem_id: str  # "T1" | "T2" | "T3" | "R1"
    verdict: str
    worst_margin: float | None
    hypotheses: dict
    scan: tuple[ScanPoint, ...]
    config: dict
    notes: tuple[str, ...] = ()

    def to_report_dict(self) -> dict:
        """The fields as a JSON-ready dict, each point's inputs a dict."""
        d = asdict(self)
        for s in d["scan"]:
            s["inputs"] = dict(s["inputs"])
        return d

    def to_json(self) -> str:
        return json.dumps(self.to_report_dict(), sort_keys=True, indent=2,
                          allow_nan=False)

    def csv_rows(self) -> list[tuple]:
        return [s.csv_row(self.theorem_id) for s in self.scan]


def _config_dict(theorem_id: str, ctx: PContext, q: Potential,
                 cfg: HarnessConfig, n_max: int | None = None) -> dict:
    settings = {**vars(cfg), "n_max": n_max, "p": ctx.p,
                "potential": q.to_spec()}
    return {k: settings[k] for k in ("p", "potential") + READS[theorem_id]}


def _finalize(theorem_id: str, hypotheses: dict, scan: list[ScanPoint],
              config: dict, notes: list[str], failed: bool
              ) -> TheoremCertificate:
    """The certificate of ``scan``: violated when a point in hypothesis
    misses its bound, else inconclusive when a solve ``failed`` or no
    point is in hypothesis, else verified."""
    in_points = [s for s in scan if s.in_hypothesis]
    worst = min((s.margin for s in in_points), default=None)
    if any(not s.satisfied for s in in_points):
        verdict = VIOLATED
    elif failed or not in_points:
        verdict = INCONCLUSIVE
    else:
        verdict = VERIFIED
    return TheoremCertificate(theorem_id=theorem_id, verdict=verdict,
                              worst_margin=worst, hypotheses=hypotheses,
                              scan=tuple(scan), config=config,
                              notes=tuple(notes))


# (name, shapes) pairs for the shape half of a hypothesis gate
_SINGLE_BARRIER = ("single-barrier", BARRIER_LIKE)
_SINGLE_WELL = ("single-well", WELL_LIKE)
_NONDECREASING = ("nondecreasing",
                  frozenset({Shape.MONOTONE_INCREASING, Shape.CONSTANT}))
_ONE_TURNING_POINT = ("monotone on each side of one turning point",
                      frozenset(Shape) - {Shape.NEITHER})


def _refuse(theorem_id: str, hypotheses: dict, config: dict,
            reason: str) -> TheoremCertificate:
    """The certificate of a q that fails the hypothesis: no scan, and
    the ``reason`` as its note."""
    return _finalize(theorem_id, hypotheses, [], config,
                     [f"hypothesis failure: {reason}"], False)


def _hypothesis_gate(cert: ShapeCertificate, sign: str | None,
                     shape: tuple[str, frozenset] | None,
                     where: str = "") -> str:
    """Why q fails a statement's hypothesis, or "" when it meets it.

    ``sign`` names the certificate's sign flag ("nonpositive" or
    "nonnegative"), or None to check the shape alone; ``shape`` is a
    (name, allowed shapes) pair, or None to check the sign alone;
    ``where`` qualifies the interval.
    """
    if sign is not None and not getattr(cert, sign):
        return f"q must be {sign}{where}"
    if shape is not None and cert.shape not in shape[1]:
        return f"q must be {shape[0]}{where}; certified {cert.shape.value}"
    return ""


def _join(*notes: str) -> str:
    return "; ".join(t for t in notes if t)


def _geomspace(start: float, stop: float, num: int) -> list[float]:
    """``numpy.geomspace(start, stop, num)`` for 0 < start <= stop, by its
    steps (log10 of both ends, exponents lo + i*step, ends pinned) with
    libm's log10 and pow; numpy's own SIMD kernels may round otherwise."""
    lo, hi = math.log10(start), math.log10(stop)
    step = (hi - lo) / (num - 1) if num > 1 else 0.0
    inner = [10.0 ** (lo + i * step) for i in range(1, num - 1)]
    return [start] + inner + [stop] * (num > 1)


def verify_theorem1(ctx: PContext, q: Potential,
                    cfg: HarnessConfig = HarnessConfig()) -> TheoremCertificate:
    """Sign of theta's rho-derivative at the turning point.

    Integrates the variational sensitivity over [0, x0] at
    ``rho_points`` values of rho, geometric from the threshold
    (-2 q(0))^(1/p) to ``rho_span`` times it, and checks
    theta_dot(x0, rho) <= slack_abs at each.  Every computed row is in
    hypothesis; a rho whose integration fails keeps its row out of
    hypothesis, with no value or margin and the failure as its note.
    When q(0) = 0 the threshold is 0 and the grid runs from
    max(1, pi_p)/2 to ``rho_span`` * max(1, pi_p).  A q with no single
    turning point (shape NEITHER) fails the hypothesis.
    """
    full = classify(q)
    x0 = full.x0
    notes: list[str] = []
    hypotheses: dict = {"shape_certificate": full.as_dict(), "x0": x0}
    config = _config_dict("T1", ctx, q, cfg)
    reason = _hypothesis_gate(full, None, _ONE_TURNING_POINT)
    if reason:
        return _refuse("T1", hypotheses, config, reason)

    trivial_interval = x0 < 1e-9
    sub = full if trivial_interval else classify(restrict(q, x0))
    q0 = q.value(0.0)  # restrict keeps q(0)
    hypotheses["restricted_shape"] = sub.shape.value
    hypotheses["q0"] = q0

    threshold = 0.0 if q0 >= 0.0 else (-2.0 * q0) ** (1.0 / ctx.p)
    hypotheses["rho_threshold"] = threshold

    reason = _hypothesis_gate(sub, "nonpositive",
                              None if trivial_interval else _NONDECREASING,
                              " on [0, x0]")
    if reason:
        return _refuse("T1", hypotheses, config, reason)

    if threshold > 0.0:
        rho_grid = _geomspace(threshold, cfg.rho_span * threshold, cfg.rho_points)
    else:
        ref = max(1.0, ctx.pi_p)
        rho_grid = _geomspace(0.5 * ref, cfg.rho_span * ref, cfg.rho_points)
        notes.append("degenerate threshold q(0) = 0: any rho > 0 "
                     "is in hypothesis; grid uses pi_p scale")

    scan: list[ScanPoint] = []
    failed = False
    for rho in rho_grid:
        inputs = (("rho", rho),)
        note = ""
        if trivial_interval:
            td, note = 0.0, "empty turning interval"
        else:
            try:
                td = integrate_sensitivity(ctx, q, rho, x0, cfg).theta_dot_end
            except SOLVE_FAILED as exc:
                failed = True
                scan.append(ScanPoint("theta_dot", inputs, None, 0.0, None,
                                      False, False,
                                      f"integration failed: {exc}"))
                continue
        # 0.0 - td: the margin of td = 0.0 is +0.0, not -0.0
        scan.append(ScanPoint("theta_dot", inputs, td, 0.0, 0.0 - td, True,
                              td <= cfg.slack_abs, note))

    if sub.nonnegative and sub.nonpositive:
        notes.append("q vanishes on [0, x0]: rigidity direction, "
                     "theta_dot should be identically zero")
    return _finalize("T1", hypotheses, scan, config, notes, failed)


def _collect_pairs(ctx: PContext, q: Potential, indices, ell: float,
                   cfg: HarnessConfig, notes: list[str]
                   ) -> dict[int, Eigenpair]:
    """Eigenpairs for ``indices``; a failed search leaves its index out
    and appends a note."""
    pairs: dict[int, Eigenpair] = {}
    for n in indices:
        try:
            pairs[n] = find_eigenvalue(ctx, q, n, ell, cfg)
        except SOLVE_FAILED as exc:
            notes.append(f"eigenvalue search failed at n={n}: {exc}")
    return pairs


def _ratio_points(p: float, pairs: dict[int, Eigenpair],
                  threshold: float | None, lower: bool, slack_rel: float,
                  inputs: tuple = ()) -> list[ScanPoint]:
    """Ratio checks over every two of the found ``pairs``; ``lower``
    picks the bound direction, and ``inputs`` lead each row's inputs.

    lambda_n / lambda_m against (n/m)^p is checked as lambda_n * m^p
    against lambda_m * n^p, which reverses with the sign of lambda_m.
    With a ``threshold``, pairs need lambda_m >= threshold to be in
    hypothesis (strictness lambda_n > lambda_m is enforced with slack).
    """
    points = []
    for m, n in itertools.combinations(sorted(pairs), 2):
        lam_m, lam_n = pairs[m].lam, pairs[n].lam
        bound = (n / m) ** p
        ratio = lam_n / lam_m
        lhs = lam_n * m ** p
        rhs = lam_m * n ** p
        slack = slack_rel * abs(rhs)
        if lower == (lam_m > 0.0):
            satisfied = lhs >= rhs - slack
            margin = (lhs - rhs) / abs(rhs)
        else:
            satisfied = lhs <= rhs + slack
            margin = (rhs - lhs) / abs(rhs)
        in_hyp = True
        note = ""
        if threshold is not None:
            strict = lam_n - lam_m > slack_rel * max(1.0, abs(lam_m))
            if lam_m < threshold:
                in_hyp = False
                note = "lambda_m below threshold"
            elif not strict:
                in_hyp = False
                note = "lambda_n > lambda_m not strict within slack"
        points.append(ScanPoint(
            "ratio", inputs + (("m", float(m)), ("n", float(n))),
            ratio, bound, margin, in_hyp, satisfied, note))
    return points


def _ratio_statement(theorem_id: str, ctx: PContext, q: Potential,
                     cert: ShapeCertificate, n_max: int, cfg: HarnessConfig,
                     sign: str, shape: tuple[str, frozenset], lower: bool,
                     threshold: float | None = None) -> TheoremCertificate:
    """The ratio bound over the pairs among lambda_1..lambda_n_max of a
    q whose certificate ``cert`` has the ``sign`` and ``shape``: a lower
    bound when ``lower``, else an upper one, and with a ``threshold``
    only pairs with lambda_m above it in hypothesis."""
    hypotheses: dict = {"shape_certificate": cert.as_dict()}
    if threshold is not None:
        hypotheses["lambda_threshold"] = threshold
    config = _config_dict(theorem_id, ctx, q, cfg, n_max)
    reason = _hypothesis_gate(cert, sign, shape)
    if reason:
        return _refuse(theorem_id, hypotheses, config, reason)

    notes: list[str] = []
    pairs = _collect_pairs(ctx, q, range(1, n_max + 1), q.domain_end, cfg,
                           notes)
    hypotheses["lambdas"] = [pairs[n].lam if n in pairs else None
                             for n in range(1, n_max + 1)]
    scan = _ratio_points(ctx.p, pairs, threshold, lower, cfg.slack_rel)
    if cert.nonnegative and cert.nonpositive:
        notes.append("q vanishes: rigidity direction, ratios should be exact")
    return _finalize(theorem_id, hypotheses, scan, config, notes,
                     len(pairs) < n_max)


def verify_theorem2(ctx: PContext, q: Potential, n_max: int = 6,
                    cfg: HarnessConfig = HarnessConfig()) -> TheoremCertificate:
    """Ratio lower bound for nonpositive single-barrier potentials.

    Pairs with lambda_m below the threshold -2 q* are recorded
    separately and never count against the statement (threshold
    sharpness probe).
    """
    cert = classify(q)
    return _ratio_statement("T2", ctx, q, cert, n_max, cfg, "nonpositive",
                            _SINGLE_BARRIER, True, -2.0 * cert.q_star)


def verify_theorem3(ctx: PContext, q: Potential, n_max: int = 4,
                    cfg: HarnessConfig = HarnessConfig()) -> TheoremCertificate:
    """Truncated-interval positivity and ratio bound.

    Scans ell through the ``ell_points`` equal steps of (0, ell_bound]
    with ell_bound = min(1, (-p/(3 q*))^(1/p)); at each ell requires
    lambda_1(ell) > 0 and the ratio lower bound for every pair.  The
    sign of lambda_1 comes from its own search: positive exactly when
    the found lambda_1 is, and only then are lambda_2..lambda_n_max
    searched and the ratios checked.  The ``lambda1`` row carries the
    found lambda_1 wherever that search succeeded, and None where it
    failed.  On this grid the comparison bound already gives
    lambda_1 >= (pi_p/ell)^p + q* > 0.

    The statement only asserts that some ell_0 > 0 works, so once a grid
    point fails, or any of its searches does, its rows are recorded out
    of hypothesis, the certificate reports the empirical ell_hat, and
    the larger grid points, which would lie beyond ell_hat whatever
    their searches found, are not searched; a note names the last
    length searched.  If the smallest grid point already fails the
    verdict is inconclusive.  A failed search leaves its length
    uncomputed, not broken: its rows carry the failure as their note.
    """
    cert = classify(q)
    hypotheses = {"shape_certificate": cert.as_dict()}
    config = _config_dict("T3", ctx, q, cfg, n_max)

    reason = _hypothesis_gate(cert, "nonpositive", _SINGLE_BARRIER)
    if reason:
        return _refuse("T3", hypotheses, config, reason)

    notes: list[str] = []
    q_star = cert.q_star
    if q_star >= 0.0:
        ell_bound = 1.0
        notes.append("degenerate threshold q* = 0: length bound formula "
                     "does not apply, using ell_bound = 1")
    else:
        ell_bound = min(1.0, (-ctx.p / (3.0 * q_star)) ** (1.0 / ctx.p))
    hypotheses["ell_bound"] = ell_bound

    scan: list[ScanPoint] = []
    failed = False
    ell_hat = 0.0
    for i in range(1, cfg.ell_points + 1):
        ell = ell_bound * i / cfg.ell_points
        qr = restrict(q, ell)
        lost: list[str] = []  # the failed searches at this length
        pairs = _collect_pairs(ctx, qr, [1], ell, cfg, lost)
        first = pairs.get(1)
        positive = first is not None and first.lam > 0.0
        lam1 = first.lam if first is not None else None

        pair_pts: list[ScanPoint] = []
        if positive:
            pairs |= _collect_pairs(ctx, qr, range(2, n_max + 1), ell, cfg,
                                    lost)
            pair_pts = _ratio_points(ctx.p, pairs, None, True, cfg.slack_rel,
                                     (("ell", ell),))

        why = ("" if positive else "lambda_1 search failed" if first is None
               else "lambda_1 not positive")
        rows = [ScanPoint("lambda1", (("ell", ell),), lam1, 0.0, lam1, True,
                          positive, why), *pair_pts]
        notes.extend(lost)
        failed |= bool(lost)
        if positive and not lost and all(s.satisfied for s in pair_pts):
            ell_hat = ell
            scan.extend(rows)
            continue
        # existence statement: the first length that fails leaves the
        # empirically certified range instead of refuting the claim, and
        # the larger ones are not searched
        if not lost:
            notes.append(f"property breaks at ell={ell!r} <= ell_bound; "
                         "flagged, existence claim judged by smaller ell")
        why_out = lost or ["property breaks at this ell"]
        scan.extend(replace(s, in_hypothesis=False,
                            note=_join(s.note, *why_out)) for s in rows)
        if i < cfg.ell_points:
            notes.append(f"last length searched: ell={ell!r}; the "
                         f"{cfg.ell_points - i} larger lengths lie beyond "
                         "empirical ell_hat and were not searched")
        break

    hypotheses["ell_hat"] = ell_hat
    # ell_hat = 0 leaves no row in hypothesis, so the verdict is
    # inconclusive
    if ell_hat == 0.0:
        notes.append("no positive ell certified at this grid resolution")
    return _finalize("T3", hypotheses, scan, config, notes, failed)


def verify_remark1(ctx: PContext, q: Potential, n_max: int = 6,
                   cfg: HarnessConfig = HarnessConfig()) -> TheoremCertificate:
    """Ratio upper bound for nonnegative single-well potentials."""
    return _ratio_statement("R1", ctx, q, classify(q), n_max, cfg,
                            "nonnegative", _SINGLE_WELL, False)
