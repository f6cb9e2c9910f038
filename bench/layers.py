"""Per-layer metrics of the traced run.

Two sources feed them:

* the spans of the traced run.  Counts (integrations, RHS evaluations,
  eigenvalues, ...) come only from spans under the ``task`` roots of the
  first traced round, so they describe one pass over the workload's own
  task list and repeat exactly at one seed.  Per-call timings (medians)
  and layer self times use every span of the run (set-up, tasks and the
  probe below) and are raw seconds: compare them within one run.
* the layer probe, the same on every workload.  It times the per-RHS
  kernels that carry no span and a cold import, rescaled by the
  yardsticks like the end-to-end times, and calls each layer's entry
  points once on small inputs, so every layer has spans even on a
  workload that never reaches it (``spectrum`` never reaches
  ``theorems`` or ``cli``).
"""

from __future__ import annotations

import io
import json
import random
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import inputs

CERTIFICATES = {"T1": "verify_theorem1", "T2": "verify_theorem2",
                "T3": "verify_theorem3", "R1": "verify_remark1"}
INTEGRATION_KEYS = ("n_rhs", "n_steps", "n_rejected")


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _per_call_us(stick, fn, args_list, batches: int = 7) -> float:
    """Median over batches of the microseconds per call of ``fn``, at the
    yardstick's reference speed."""
    def batch():
        for args in args_list:
            fn(*args)
    return 1e6 * statistics.median(stick.time(batch)[1] / len(args_list)
                                   for _ in range(batches))


def child_seconds(child: str, src: str, env: dict, *args: str) -> float:
    proc = subprocess.run([sys.executable, child, src, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"child failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def probe(api, seed: int, child: str, src: str, env: dict, stick, cold
          ) -> dict[str, float]:
    """Call every layer from outside on small seeded inputs; unit costs.

    ``stick`` and ``cold`` are the yardsticks for in-process work and for
    child processes.
    """
    rng = random.Random(seed)
    specs = inputs.potentials(seed, draw=0)
    q = {k: inputs.build(api, s) for k, s in specs.items()}
    out = {}

    ctx3, _, _ = (api.make_context(3.0) for _ in range(3))  # three spans
    ctx2 = api.make_context(2.0)

    period = 2.0 * ctx3.pi_p
    phases = [(ctx3, rng.uniform(0.0, 6.0 * period)) for _ in range(2000)]
    out["ptrig.fast_pair_us"] = _per_call_us(stick, api.ptrig.fast_pair, phases)
    xs = np.array([rng.uniform(0.0, period) for _ in range(4096)])
    out["ptrig.sp_pair_us_per_point"] = _per_call_us(
        stick, api.sp_pair, [(ctx3, xs)], batches=5) / len(xs)

    pl5 = q["pl5"]
    out["potentials.value_us"] = _per_call_us(
        stick, pl5.value, [(rng.uniform(0.0, 1.0),) for _ in range(2000)])
    for _ in range(3):
        api.classify(pl5)

    for _ in range(3):
        api.direct_shoot(ctx3, q["tent"], 0.0, 1.0)

    small = api.HarnessConfig(rho_points=8, ell_points=4)
    api.verify_theorem1(ctx2, q["tent"], cfg=small)
    api.verify_theorem2(ctx2, q["tent"], n_max=3, cfg=small)
    api.verify_theorem3(ctx2, q["tent"], n_max=2, cfg=small)
    api.verify_remark1(ctx2, q["well"], n_max=3, cfg=small)

    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        api.cli.main(["classify", "--potential", json.dumps(specs["pl5"])])
        api.cli.main(["eigs", "--potential", json.dumps(specs["constant"]),
                      "--n-max", "2"])

    out["cli.import_s"] = _median(cold.rescale(child_seconds(child, src, env, "import"))
                                  for _ in range(3))
    return out


def layer_metrics(tracer, probe_out: dict, untraced_wall: float,
                  traced_wall: float, rel_errors: list[float]) -> dict[str, float]:
    spans = tracer.spans
    tasks = [i for i, s in enumerate(spans) if spans[s.root].name == "task"]
    first = [i for i in tasks if spans[spans[i].root].info["round"] == 0]

    def durations(name):
        return [s.duration for s in spans if s.name == name]

    def integration_spans(pool):
        return [i for i in pool if spans[i].layer == "prufer"
                and (spans[i].info or {}).get("n_rhs") is not None]

    every_integration = integration_spans(tasks)
    rhs_all = sum(spans[i].info["n_rhs"] for i in every_integration)
    integrations = integration_spans(first)
    totals = {k: sum(spans[i].info[k] for i in integrations)
              for k in INTEGRATION_KEYS}
    attempted = totals["n_steps"] + totals["n_rejected"]

    finds = [i for i in first if spans[i].name == "find_eigenvalue"]
    owners = {i: tracer.ancestor(i, "find_eigenvalue") for i in integrations}
    under_find = sum(1 for o in owners.values() if o is not None)
    repolished = set()
    for i, owner in owners.items():
        configured = (owner.info or {}).get("configured_rel_tol") if owner else None
        rel_tol = spans[i].info.get("rel_tol")
        if configured is not None and rel_tol is not None and rel_tol < configured:
            repolished.add(id(owner))

    certs = [i for i in first if spans[i].name in CERTIFICATES.values()]
    eigs_in_certs = sum(1 for i in finds if any(
        tracer.ancestor(i, fn) for fn in CERTIFICATES.values()))

    self_s = tracer.self_times()
    m = {
        "ptrig.fast_pair_us": probe_out["ptrig.fast_pair_us"],
        "ptrig.sp_pair_us_per_point": probe_out["ptrig.sp_pair_us_per_point"],
        "ptrig.make_context_ms": 1e3 * _median(durations("make_context")),
        "ptrig.self_s": self_s["ptrig"],
        "potentials.value_us": probe_out["potentials.value_us"],
        "potentials.classify_ms": 1e3 * _median(durations("classify")),
        "potentials.restrict_calls": sum(1 for i in first if spans[i].name == "restrict"),
        "potentials.self_s": self_s["potentials"],
        "prufer.integrations": len(integrations),
        "prufer.rhs_evals": totals["n_rhs"],
        "prufer.rejected_steps": totals["n_rejected"],
        "prufer.reject_ratio": totals["n_rejected"] / attempted if attempted else 0.0,
        "prufer.us_per_rhs": (1e6 * sum(spans[i].duration for i in every_integration)
                              / rhs_all) if rhs_all else 0.0,
        "prufer.self_s": self_s["prufer"],
        "eigensolver.eigenvalues": len(finds),
        "eigensolver.integrations_per_eig": under_find / len(finds) if finds else 0.0,
        "eigensolver.find_s_p50": _median(durations("find_eigenvalue")),
        "eigensolver.repolish_frac": len(repolished) / len(finds) if finds else 0.0,
        "eigensolver.direct_shoots": sum(1 for i in first if spans[i].name == "direct_shoot"),
        "eigensolver.direct_shoot_s": _median(durations("direct_shoot")),
        "eigensolver.self_s": self_s["eigensolver"],
    }
    for cert, fn in CERTIFICATES.items():
        m[f"theorems.cert_s.{cert}"] = _median(durations(fn))
    m["theorems.eigs_per_cert"] = eigs_in_certs / len(certs) if certs else 0.0
    m["theorems.self_s"] = self_s["theorems"]
    m["cli.import_s"] = probe_out["cli.import_s"]
    m["cli.main_s"] = _median(durations("main"))
    m["cli.self_s"] = self_s["cli"]
    m["lam_rel_err_max"] = max(rel_errors) if rel_errors else 0.0
    m["trace.overhead_s"] = traced_wall - untraced_wall
    return m


def t3_breakdown(tracer) -> str:
    """Where T3's time goes: eigenvalue searches against direct shots."""
    spans = tracer.spans
    t3 = [i for i, s in enumerate(spans)
          if s.name == CERTIFICATES["T3"] and spans[s.root].name == "task"]
    if not t3:
        return "T3 breakdown: no T3 task in this workload"
    total = sum(spans[i].duration for i in t3)
    parts = {}
    for name in ("find_eigenvalue", "direct_shoot", "restrict", "classify"):
        parts[name] = sum(s.duration for i, s in enumerate(spans)
                          if s.name == name and tracer.ancestor(i, CERTIFICATES["T3"])
                          and spans[s.root].name == "task")
    shares = ", ".join(f"{k} {v:.3f} s ({100 * v / total:.0f}%)" for k, v in parts.items())
    return f"T3 breakdown over {len(t3)} certificates, {total:.3f} s: {shares}"
