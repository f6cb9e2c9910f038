"""Layered benchmark of plapeig: one client, tasks run one after another.

    python3 bench/run.py --workload spectrum|certify|cli-cold \\
        --seed N --seconds S --trace 0|1

Runs against the checkout this file sits in: ``src`` goes first on the
path, and the run stops with exit code 2, printing no result, when
``plapeig`` would be imported from anywhere else.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

The load is a closed loop with one client: the workload's task list
runs again and again, one task after another, for ``--seconds``.

``--trace 0`` reports the end-to-end metrics, with nothing patched:
set-up time (the median of five child processes that import plapeig,
build the workload's contexts and its potentials), the median time of
one pass over the task list, the share of tasks that succeeded and
the peak resident memory.  ``--trace 1`` reports the per-layer
metrics: half of the time runs the task list untraced, then the tracer
wraps every layer, and the task list and the layer probe run traced;
the spans are written to ``.bench_out/`` at the end.  Times are
rescaled to a reference machine speed by the yardsticks of
``yardstick.py``; the raw medians are printed on the comment lines.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import layers
import workloads
from spans import Tracer
import yardstick

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD = str(Path(__file__).resolve().parent / "child.py")
SETUP_SAMPLES = 5


class CheckoutError(Exception):
    pass


def import_from_checkout():
    """Import plapeig from this checkout's ``src`` and prove it did."""
    if not (SRC / "plapeig" / "__init__.py").is_file():
        raise CheckoutError(f"no plapeig package under {SRC}")
    sys.path.insert(0, str(SRC))
    import plapeig
    import plapeig.cli  # noqa: F401  (not imported by the package itself)
    if not Path(plapeig.__file__).resolve().is_relative_to(SRC):
        raise CheckoutError(f"plapeig imported from {plapeig.__file__}, not {SRC}")
    # the environment of the cli-cold child processes
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    proc = subprocess.run([sys.executable, "-c", "import plapeig; print(plapeig.__file__)"],
                          env=env, capture_output=True, text=True, timeout=120)
    found = proc.stdout.strip()
    if proc.returncode != 0 or not Path(found).resolve().is_relative_to(SRC):
        raise CheckoutError(f"child processes import plapeig from {found or proc.stderr!r}, "
                            f"not {SRC}")
    return plapeig, env


class Rounds:
    """Task and round times of repeated passes over a task list.

    A task fails when it raises (the program refused) or when its check
    fails (the program answered wrongly); only the second kind makes the
    run incorrect.  Times are rescaled by the yardstick to its reference
    machine speed.  With a tracer, every task runs inside a ``task`` span
    tagged with its round.
    """

    def __init__(self, stick: yardstick.Yardstick, tracer=None):
        self.stick = stick
        self.tracer = tracer
        self.round_s: list[float] = []
        self.raw_round_s: list[float] = []
        self.task_s: list[float] = []
        self.attempted = 0
        self.refused: list[str] = []
        self.wrong: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.refused) + len(self.wrong)

    def run(self, workload, seconds: float, min_rounds: int = 1) -> "Rounds":
        start = time.perf_counter()
        while True:
            total = raw_total = 0.0
            for label, call in workload.tasks():
                outcome = {}

                def task(call=call):
                    with (self.tracer.span("task", round=len(self.round_s))
                          if self.tracer else nullcontext()):
                        try:
                            outcome["result"] = call()
                        except Exception:  # a refused task; the run goes on
                            outcome["error"] = traceback.format_exc(limit=3)

                raw, scaled = self.stick.time(task)
                self._judge(workload, label, outcome)
                self.task_s.append(scaled)
                total += scaled
                raw_total += raw
            self.round_s.append(total)
            self.raw_round_s.append(raw_total)
            elapsed = time.perf_counter() - start
            if len(self.round_s) >= min_rounds and elapsed + raw_total > seconds:
                return self

    def _judge(self, workload, label: str, outcome: dict) -> None:
        self.attempted += 1
        if "error" in outcome:
            self.refused.append(f"{label}: {outcome['error']}")
            return
        try:
            error = workload.check(label, outcome["result"])
        except workloads.Refused as exc:
            self.refused.append(f"{label}: {exc}")
            return
        except Exception:  # a malformed result is a wrong one
            error = traceback.format_exc(limit=2)
        if error is not None:
            self.wrong.append(f"{label}: {error}")


def untraced(workload, api, env, seconds: float) -> tuple[dict, Rounds]:
    cold = yardstick.cold_start(env)
    plan = json.dumps(workload.setup_plan())
    setup = [cold.rescale(layers.child_seconds(CHILD, str(SRC), env, "setup", plan))
             for _ in range(SETUP_SAMPLES)]
    workload.setup(api)
    stick = yardstick.interpreter(ticks=True) if workload.in_process else cold
    rounds = Rounds(stick).run(workload, seconds, workload.min_rounds)
    values = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(rounds.round_s),
        "ok_frac": 1.0 - rounds.failed / rounds.attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    print(f"# rounds={[round(s, 4) for s in rounds.round_s]} "
          f"raw={[round(s, 4) for s in rounds.raw_round_s]} tasks={len(rounds.task_s)} "
          f"setup={[round(s, 4) for s in setup]} "
          f"yardstick_ms_p50={1e3 * statistics.median(stick.readings):.2f} "
          f"cold_start_ms_p50={1e3 * statistics.median(cold.readings):.2f} "
          f"task_s_p50={statistics.median(rounds.task_s):.4f}")
    return with_units(values, "end_to_end"), rounds


def traced(workload, api, env, seconds: float, seed: int, name: str
           ) -> tuple[dict, Rounds]:
    start = time.perf_counter()
    workload.in_process = True
    workload.setup(api)
    # no readings inside tasks: they would land inside the spans
    stick = yardstick.interpreter(ticks=False)
    rounds = Rounds(stick).run(workload, seconds / 2.0)
    plain_wall = statistics.median(rounds.round_s)

    tracer = Tracer()
    wrapped = tracer.install()
    with tracer.span("setup"):
        workload.setup(api)
    remaining = seconds - (time.perf_counter() - start)
    traced_rounds = Rounds(stick, tracer).run(workload, remaining)
    with tracer.span("probe"):
        probe_out = layers.probe(api, seed, CHILD, str(SRC), env, stick,
                                 yardstick.cold_start(env))

    traced_wall = statistics.median(traced_rounds.round_s)
    values = layers.layer_metrics(tracer, probe_out, plain_wall, traced_wall,
                                  workload.rel_errors)
    print(f"# wrapped {wrapped} functions; {len(tracer.spans)} spans; "
          f"untraced round {plain_wall:.4f} s, traced round {traced_wall:.4f} s")
    print("# self time per layer: " + ", ".join(
        f"{k} {v:.4f} s" for k, v in tracer.self_times().items()))
    print("# " + layers.t3_breakdown(tracer))
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"spans-{name}-seed{seed}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "metrics": values,
                   "spans": tracer.dump()}, fh)

    traced_rounds.attempted += rounds.attempted
    traced_rounds.refused += rounds.refused
    traced_rounds.wrong += rounds.wrong
    return with_units(values, "per_layer"), traced_rounds


def with_units(values: dict, kind: str) -> dict:
    """The metrics BENCHMARK.json declares under ``kind``, in its order."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))[kind]
    if {m["name"] for m in declared} != set(values):
        raise KeyError(f"measured {sorted(values)} but BENCHMARK.json declares "
                       f"{sorted(m['name'] for m in declared)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        api, env = import_from_checkout()
    except CheckoutError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed, env)
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"inputs={json.dumps(workload.specs, sort_keys=True)}")
    if args.trace:
        metrics, rounds = traced(workload, api, env, args.seconds, args.seed,
                                 args.workload)
    else:
        metrics, rounds = untraced(workload, api, env, args.seconds)
        if workload.rel_errors:
            print(f"# lam_rel_err_max={max(workload.rel_errors)!r}")
    for kind, failures in (("REFUSED", rounds.refused), ("WRONG", rounds.wrong)):
        for failure in failures:
            print(f"# {kind} " + failure.strip().replace("\n", "\n# "))
    print(json.dumps({
        "correct": not rounds.wrong,
        "attempted": rounds.attempted,
        "failed": rounds.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
