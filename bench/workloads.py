"""The benchmark workloads: fixed task lists and their correctness checks.

A workload builds its contexts and potentials in ``setup`` and hands out
its task list as (label, call) pairs.  ``check`` judges one task's
result: it returns a message for a wrong answer, raises ``Refused``
when the program declined to answer (an inconclusive certificate, a
solver failure reported by the CLI), and returns None otherwise.  Every
workload holds a constant potential c < 0 and records the relative
error of each of its eigenvalues against the closed form
(n*pi_p/ell)^p + c.
"""

from __future__ import annotations

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import inputs

# Relative slack on the comparison bounds (n*pi_p/ell)^p + [min q, max q].
# It is the package's own eigenvalue agreement gate against direct
# shooting (acceptance criterion 4), so the check catches a wrong root
# or index, while the closed-form misses stay visible in lam_rel_err_max.
BOUND_SLACK = 1e-6


class Refused(Exception):
    """The program reported that it could not produce the result."""


class Workload:
    ps: tuple[float, ...] = ()
    uses: tuple[str, ...] = ()
    draws = 1
    min_rounds = 1
    in_process = True  # False: each task is a child process

    def __init__(self, seed: int, env: dict):
        self.seed = seed
        self.env = env
        self.specs = {f"{name}{d}": spec for d in range(self.draws)
                      for name, spec in inputs.potentials(seed, d).items()
                      if name in self.uses}
        self.rel_errors: list[float] = []

    def setup(self, api) -> None:
        self.api = api
        self.ctx = {p: api.make_context(p) for p in self.ps}
        self.q = {k: inputs.build(api, s) for k, s in self.specs.items()}

    def setup_plan(self) -> dict:
        """What a child process builds to time the set-up."""
        return {"ps": list(self.ps), "potentials": list(self.specs.values())}

    def tasks(self) -> list[tuple[str, object]]:
        raise NotImplementedError

    def check(self, label: str, result) -> str | None:
        raise NotImplementedError

    def record_closed_form(self, p: float, c: float, lambdas) -> None:
        pi_p = self.ctx[p].pi_p
        for n, lam in enumerate(lambdas, start=1):
            exact = (n * pi_p) ** p + c
            self.rel_errors.append(abs(lam - exact) / abs(exact))


class Spectrum(Workload):
    """compute_spectrum(n_max=12, ell=1) for four p on three potentials.

    Time goes to the 1-D phase right-hand side and the root-find; p = 1.5
    hits the tight re-polish on most indices, p = 2 on none.  The
    potentials have 1, 0 and 3 interior knots.  No theorems, no CLI.
    """

    ps = (1.5, 2.0, 3.0, 5.0)
    uses = ("tent", "constant", "pl5")
    N_MAX = 12

    def tasks(self):
        api = self.api
        return [(f"spectrum p={p:g} {name}",
                 lambda p=p, name=name: api.compute_spectrum(
                     self.ctx[p], self.q[name], self.N_MAX, 1.0))
                for p in self.ps for name in self.q]

    def check(self, label, spec):
        lams = [pr.lam for pr in spec.pairs]
        if len(lams) != self.N_MAX:
            return f"{len(lams)} eigenvalues, expected {self.N_MAX}"
        if any(b <= a for a, b in zip(lams, lams[1:])):
            return "spectrum not strictly increasing"
        ctx = spec.ctx
        qmin, qmax = spec.potential.min_max()
        for n, lam in enumerate(lams, start=1):
            free = (n * ctx.pi_p / spec.ell) ** ctx.p
            lo, hi = free + qmin, free + qmax
            if not (lo - BOUND_SLACK * abs(lo) <= lam <= hi + BOUND_SLACK * abs(hi)):
                return f"lambda_{n}={lam!r} outside comparison bounds [{lo!r}, {hi!r}]"
        if spec.potential.kind == "constant":
            self.record_closed_form(ctx.p, qmin, lams)
        return None


class Certify(Workload):
    """T1, T2, T3 and R1 certificates at p = 2 and 3, plus T2 on a constant.

    Uses the 3-D sensitivity state (T1), many short-interval low-n solves
    after ``restrict`` (T3) and the direct shot behind ``sign_of_lambda1``.
    Every certificate must be verified, with the same bytes in every
    round, so a run makes at least two rounds.  Whether the tight
    re-polish fires is a chaotic function of the input, so the list
    covers two seeded draws of each potential: the work of one draw
    varies by about 15% from seed to seed, that of the list by less.
    """

    ps = (2.0, 3.0)
    uses = ("tent", "well", "constant")
    draws = 2
    min_rounds = 2

    def setup(self, api):
        super().setup(api)
        self.first_json: dict[str, str] = {}

    def tasks(self):
        api = self.api
        out = []
        for d in range(self.draws):
            tent, well, const = (self.q[f"{k}{d}"] for k in self.uses)
            for p in self.ps:
                ctx = self.ctx[p]
                out += [
                    (f"T1 p={p:g} tent{d}", lambda ctx=ctx, q=tent:
                        api.verify_theorem1(ctx, q)),
                    (f"T2 p={p:g} tent{d}", lambda ctx=ctx, q=tent:
                        api.verify_theorem2(ctx, q, n_max=6)),
                    (f"T3 p={p:g} tent{d}", lambda ctx=ctx, q=tent:
                        api.verify_theorem3(ctx, q, n_max=4)),
                    (f"R1 p={p:g} well{d}", lambda ctx=ctx, q=well:
                        api.verify_remark1(ctx, q, n_max=6)),
                    (f"T2 p={p:g} constant{d}", lambda ctx=ctx, q=const:
                        api.verify_theorem2(ctx, q, n_max=6)),
                ]
        return out

    def check(self, label, cert):
        if cert.verdict == "inconclusive":
            raise Refused(f"inconclusive: {list(cert.notes)}")
        if cert.verdict != "verified":
            return f"verdict {cert.verdict!r}, expected 'verified'"
        text = cert.to_json()
        if self.first_json.setdefault(label, text) != text:
            return "certificate bytes differ from the first round"
        potential = cert.config["potential"]
        if potential["type"] == "constant":
            self.record_closed_form(float(cert.config["p"]), potential["value"],
                                    cert.hypotheses["lambdas"])
        return None


class CliCold(Workload):
    """Fresh sequential ``python -m plapeig`` processes: eigs, classify,
    ptrig-table and verify.

    Import, argparse, make_context and the vectorized sp_pair dominate, so
    solver changes should leave this workload unchanged.  The traced run
    calls ``plapeig.cli.main`` in-process instead, so spans can be kept.
    """

    ps = (2.0, 3.0)
    uses = ("tent", "pl5", "constant")
    in_process = False
    EIGS_N_MAX = 4
    TABLE_STEPS = 64

    def setup(self, api):
        super().setup(api)
        self.reference = [pr.lam for pr in api.compute_spectrum(
            self.ctx[2.0], self.q["tent0"], self.EIGS_N_MAX, 1.0).pairs]
        spec = {name: json.dumps(s) for name, s in self.specs.items()}
        self.argvs = {
            "eigs": ["eigs", "--p", "2", "--potential", spec["tent0"],
                     "--n-max", str(self.EIGS_N_MAX), "--format", "report"],
            "classify": ["classify", "--potential", spec["pl50"]],
            "ptrig-table": ["ptrig-table", "--p", "3", "--x-min", "0",
                            "--x-max", repr(inputs.ptrig_table_x_max(self.seed)),
                            "--steps", str(self.TABLE_STEPS)],
            "verify": ["verify", "--theorem", "t2", "--p", "3",
                       "--potential", spec["constant0"], "--n-max", "4",
                       "--format", "report"],
        }

    def _child(self, argv):
        proc = subprocess.run([sys.executable, "-m", "plapeig", *argv],
                              env=self.env, capture_output=True, text=True,
                              timeout=120)
        return proc.returncode, proc.stdout, proc.stderr

    def _in_process(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.api.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def tasks(self):
        run = self._in_process if self.in_process else self._child
        return [(name, lambda argv=argv: run(argv))
                for name, argv in self.argvs.items()]

    def check(self, label, result):
        code, out, err = result
        if code in (2, 4):  # solver failure, inconclusive certificate
            raise Refused(f"exit code {code}: {err.strip()[-300:]}")
        if code != 0:
            return f"exit code {code}: {err.strip()[-300:]}"
        if label == "eigs":
            doc = json.loads(out)
            col = doc["columns"].index("lambda")
            lams = [row[col] for row in doc["rows"]]
            if lams != self.reference:
                return f"eigenvalues {lams} differ from in-process {self.reference}"
        elif label == "ptrig-table":
            rows = [ln for ln in out.splitlines() if ln and not ln.startswith("#")]
            if len(rows) != self.TABLE_STEPS + 2:  # header + steps + 1
                return f"{len(rows) - 1} table rows, expected {self.TABLE_STEPS + 1}"
        elif label == "classify":
            if len([ln for ln in out.splitlines() if not ln.startswith("#")]) != 2:
                return "classify printed no data row"
        elif label == "verify":
            cert = json.loads(out)["certificate"]
            self.record_closed_form(3.0, self.specs["constant0"]["value"],
                                    cert["hypotheses"]["lambdas"])
        return None


WORKLOADS = {"spectrum": Spectrum, "certify": Certify, "cli-cold": CliCold}
