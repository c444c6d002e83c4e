"""Self-test: every output check can fail.

    python3 bench/selftest.py

For each workload this sets up with a fixed seed, runs one operation and
confirms that its checks pass, then corrupts one kind of output at a time
and confirms that the matching check reports the operation as failed:

* one stress column scaled by 1.01 (the cantilever's output CSV, the
  plate's recovered stress) and one NRMSE value of a sweep report;
* one stencil weight perturbed by a relative 1e-6, on every operator the
  program builds or is given;
* one row dropped from the output CSV;
* a non-zero exit code from the command.

It also confirms that a traced run which records no span for an expected
layer stops with an error. Exits 0 when every corruption is caught.
"""

from __future__ import annotations

import contextlib
import json
import shutil
import sys

import run as bench

dcpse = bench.import_dcpse()

import checks  # noqa: E402
import workloads  # noqa: E402
from tracing import LayerMissing, Tracer  # noqa: E402

REL = 1e-6


class PerturbedOperator:
    """A stencil operator with one weight, at one node, scaled by 1 + REL."""

    def __init__(self, op):
        self._op = op
        self.node = op.n // 2
        self.neighbor = int(op.neighbor_ids[self.node][0])
        w = op.weights[self.node].copy()
        w[0] *= 1.0 + REL
        self._delta = w[0] - op.weights[self.node][0]
        self.weights = list(op.weights)
        self.weights[self.node] = w

    def __getattr__(self, name):
        return getattr(self._op, name)

    def apply(self, values):
        out = self._op.apply(values).copy()
        out[self.node] += self._delta * (values[self.neighbor] + self._op.sign * values[self.node])
        return out


@contextlib.contextmanager
def perturbed_builds():
    """Every gradient_operator call the program makes returns perturbed
    operators while the context is open."""
    original = dcpse.operators.gradient_operator

    def build(*args, **kwargs):
        return tuple(PerturbedOperator(op) for op in original(*args, **kwargs))

    patched = []
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "dcpse" or name.startswith("dcpse.")):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, build)
                    patched.append((mod, attr))
    try:
        yield
    finally:
        for mod, attr in patched:
            setattr(mod, attr, original)


class Report:
    def __init__(self):
        self.ok = True

    def expect(self, workload: str, label: str, problems: list[str], fail: bool) -> None:
        caught = bool(problems) == fail
        self.ok &= caught
        verdict = ("caught" if fail else "passes") if caught else ("MISSED" if fail else "FAILS")
        detail = problems[0].splitlines()[0] if problems else ""
        print(f"{workload:<16} {label:<44} {verdict:<7} {detail}", flush=True)


def cantilever(report: Report, out) -> None:
    wl = workloads.CantileverCli()
    state = wl.setup(0, out)
    case = wl.prepare(state, 0)
    problems, _ = wl.check(state, case, wl.run(state, case))
    report.expect(wl.name, "unchanged output", problems, fail=False)
    path = state["out"]
    original = path.read_bytes()

    header, data = checks.read_csv(path)
    data[:, header.index("szz")] *= 1.01
    checks.write_csv(path, header, [data])
    report.expect(wl.name, "stress column scaled by 1.01", wl.check(state, case, (0, ""))[0], fail=True)

    lines = original.splitlines(keepends=True)
    path.write_bytes(b"".join(lines[:100] + lines[101:]))
    report.expect(wl.name, "one CSV row dropped", wl.check(state, case, (0, ""))[0], fail=True)

    path.write_bytes(original)
    report.expect(wl.name, "exit code 1", wl.check(state, case, (1, ""))[0], fail=True)

    with perturbed_builds():
        (_, quadratic), = wl.property_ops(state)
        report.expect(wl.name, "one weight perturbed by 1e-6", quadratic(), fail=True)


def plate(report: Report, out) -> None:
    wl = workloads.PlateLoadcases()
    state = wl.setup(0, out)
    for label, op in wl.property_ops(state):
        report.expect(wl.name, label, op(), fail=False)
    case = wl.prepare(state, 0)
    fields = wl.fields(wl.run(state, case))
    report.expect(wl.name, "unchanged output", checks.check_plate(fields, case, state["basis"])[0], fail=False)

    scaled = dict(fields, stress=fields["stress"].copy())
    scaled["stress"][:, 0, 0] *= 1.01
    report.expect(wl.name, "stress column scaled by 1.01",
                  checks.check_plate(scaled, case, state["basis"])[0], fail=True)

    bad = dict(state, ops=tuple(PerturbedOperator(op) for op in state["ops"]))
    report.expect(wl.name, "one weight perturbed by 1e-6", wl.check(bad, case, wl.run(bad, case))[0], fail=True)
    quadratic = dict(wl.property_ops(bad))["quadratic displacement gives exact stress"]
    report.expect(wl.name, "one weight perturbed, quadratic case", quadratic(), fail=True)


def franke(report: Report, out) -> None:
    wl = workloads.FrankeSweep()
    state = wl.setup(0, out)
    ops = dict(wl.property_ops(state))
    report.expect(wl.name, "sweep report", ops["sweep report"](), fail=False)
    recompute = ops["report NRMSE matches own recomputation"]
    report.expect(wl.name, "report NRMSE matches own recomputation", recompute(), fail=False)
    seed = wl.prepare(state, 0)
    report.expect(wl.name, "unchanged output", wl.check(state, seed, wl.run(state, seed))[0], fail=False)

    path = state["first_report"]
    doc = json.loads(path.read_text())
    doc["levels"][-1]["nrmse"]["du_dx"] *= 1.01
    path.write_text(json.dumps(doc, indent=2) + "\n")
    report.expect(wl.name, "report NRMSE scaled by 1.01", recompute(), fail=True)

    report.expect(wl.name, "exit code 1", wl.check(state, seed, (1, ""))[0], fail=True)

    with perturbed_builds():
        output = wl.run(state, seed)
    report.expect(wl.name, "one weight perturbed by 1e-6", wl.check(state, seed, output)[0], fail=True)

    state["first_bytes"] += b" "
    report.expect(wl.name, "same seed, different report bytes", wl.check(state, seed, wl.run(state, seed))[0],
                  fail=True)


def missing_layer(report: Report, out) -> None:
    wl = workloads.PlateLoadcases()
    state = wl.setup(0, out)
    tracer = Tracer()
    tracer.install()
    try:
        wl.run(state, wl.prepare(state, 0))
    finally:
        tracer.uninstall()
    try:
        tracer.require(workloads.CantileverCli.expected_spans)
        problems = []
    except LayerMissing as err:
        problems = [str(err)]
    report.expect("tracing", "expected layer records no span", problems, fail=True)


def main() -> int:
    report = Report()
    bench.OUT.mkdir(exist_ok=True)
    out = bench.OUT / "selftest"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    try:
        for test in (cantilever, plate, franke, missing_layer):
            test(report, out)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    print("self-test passed" if report.ok else "self-test FAILED")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
