"""Run one benchmark workload in this process and print one JSON line.

``run.py`` starts this file in a fresh interpreter with the BLAS thread pins
already in its environment.  Modes:

    python3 perfbench/worker.py --setup
    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1

``--setup`` imports the package and makes the warm-up call, nothing else;
``run.py`` times whole ``--setup`` processes for ``setup_s``.  ``--trace 0``
times untraced passes for ``--seconds``.  ``--trace 1`` runs one untraced
and one traced pass plus the isolated probes, and writes the spans to
``.bench_out/`` in the checkout.
"""
from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import os
import platform
import re
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracer import Absent, Tracer
from workloads import SMOKE, WORKLOADS, CliOp, ExactOp, operations

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs.json"
OUT_DIR = ROOT / ".bench_out"
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1"}
SWEEP_REL = 1e-12
PROBE_REPEATS = 5
WARM_UP = SMOKE["smoke-exact"][0]


def bootstrap():
    """Pin BLAS to one thread, then import the package from ``ROOT/src``."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the thread pins")
    os.environ.update(THREAD_PINS)
    pkg = ROOT / "src" / "casimir_cylinders"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: no package at {pkg}; run from a checkout")
    sys.path.insert(0, str(pkg.parent))
    import casimir_cylinders
    if Path(casimir_cylinders.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported {casimir_cylinders.__file__}, "
                         f"not the checkout's {pkg}")
    return casimir_cylinders


def fingerprint() -> dict:
    import numpy as np
    try:
        blas = dict(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    except (TypeError, KeyError) as exc:
        blas = {"unknown": repr(exc)}
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f
                    if line.startswith("model name")), cpu)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_PINS},
    }


# -- operations and the accuracy gate -------------------------------------

def run_exact(cc, op: ExactOp, rel_tol: float):
    pair = cc.CylinderPair(cc.Kind(op.kind), op.a, op.b, op.d)
    fn = (cc.casimir_energy_exact if op.quantity == "energy"
          else cc.casimir_force_exact)
    return fn(pair, cc.BoundaryPair[op.bc], rel_tol=rel_tol)


def run_cli(cli, op: CliOp) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(op.argv))
    return code, out.getvalue()


def sweep_records(stdout: str) -> list[list]:
    return [[rec["d"], rec["method"], rec["value_per_length"]]
            for rec in json.loads(stdout)]


def _close(got, want, rel: float) -> bool:
    return (isinstance(got, float) and isinstance(want, float)
            and abs(got - want) <= rel * abs(want))


def gate_exact(op: ExactOp, ref: float, res) -> str | None:
    """Why the result misses the gate, or None when it passes."""
    if not res.converged:
        return f"converged=False (err_est {res.err_est:.3e})"
    miss = abs(res.value_per_length - ref)
    if not miss <= op.rel_tol * abs(ref):
        return (f"value {res.value_per_length!r} misses ref {ref!r} by "
                f"{miss:.3e} > rel_tol*|ref| = {op.rel_tol * abs(ref):.3e}")
    return None


def gate_cli(op: CliOp, code: int, stdout: str, pinned) -> str | None:
    if code != 0:
        return f"exit code {code}"
    if op.argv[0] != "sweep":
        return None
    if pinned is None:
        return "no pinned sweep records"
    got = sweep_records(stdout)
    if len(got) != len(pinned):
        return f"{len(got)} sweep records, pinned {len(pinned)}"
    for (d, method, value), (d0, method0, value0) in zip(got, pinned):
        if method != method0 or not _close(d, d0, SWEEP_REL) \
                or not _close(value, value0, SWEEP_REL):
            return (f"record {method} d={d!r}: {value!r} vs pinned "
                    f"{method0} d={d0!r}: {value0!r}")
    return None


def run_op(cc, cli, op, refs: dict) -> dict:
    """Run one operation, gate it, and report a failure as soon as found."""
    out = {"op": op.key, "reason": None}
    try:
        if isinstance(op, ExactOp):
            ref = refs["exact"][op.key]["value"]
            res = run_exact(cc, op, op.rel_tol)
            out.update(value=res.value_per_length, err_est=res.err_est,
                       n_matrix=res.n_matrix, p_terms_max=res.p_terms_max,
                       xi_nodes=res.xi_nodes,
                       rel_err=abs(res.value_per_length - ref) / abs(ref))
            if res.err_est > 0:
                out["err_ratio"] = abs(res.value_per_length - ref) / res.err_est
            out["reason"] = gate_exact(op, ref, res)
        else:
            code, stdout = run_cli(cli, op)
            out["reason"] = gate_cli(op, code, stdout,
                                     refs["cli"].get(op.key, {}).get("records"))
    except Exception as exc:   # a raising operation is a failed operation
        out["reason"] = "raised " + "".join(
            traceback.format_exception_only(type(exc), exc)).strip()
    if out["reason"]:
        print(f"FAIL {op.key}: {out['reason']}", file=sys.stderr, flush=True)
    return out


def run_pass(cc, cli, ops, refs, tracer: Tracer | None = None):
    """(wall seconds, CPU seconds, outcomes) of one pass over ``ops``."""
    outcomes = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    for op in ops:
        layer = "scattering.driver" if isinstance(op, ExactOp) else "cli"
        with tracer.span(layer) if tracer else contextlib.nullcontext():
            outcomes.append(run_op(cc, cli, op, refs))
    return time.perf_counter() - t0, time.process_time() - cpu0, outcomes


# -- tracing and probes ----------------------------------------------------

def wrap_tables(tracer: Tracer, scattering) -> dict[str, str]:
    """Trace every ``log_*_table`` name scattering looks up."""
    names = [n for n, obj in vars(scattering).items()
             if re.fullmatch(r"log_\w+_table", n) and callable(obj)]
    if not names:
        reason = "scattering binds no log_*_table function"
        return {"bessel.table": reason, "bessel.orders": reason}
    absent = {}
    for name in names:
        try:
            tracer.wrap(scattering, name, "bessel.table", weight_arg="n_max")
        except Absent as exc:
            absent["bessel.orders"] = str(exc)
            tracer.wrap(scattering, name, "bessel.table")
    return absent


def install_spans(tracer: Tracer) -> dict[str, str]:
    """Rebind the traced names; returns {layer: reason} for missing ones."""
    from casimir_cylinders import cli, oracle, pfa, scattering
    absent = wrap_tables(tracer, scattering)
    try:
        tracer.wrap(scattering, "log_det_one_minus", "scattering.logdet")
    except Absent as exc:
        absent["scattering.logdet"] = str(exc)
    targets = ((cli, ("pfa", "asymptotics", "oracle")),
               (pfa, ("quadrature",)), (oracle, ("quadrature",)))
    found = set()
    for namespace, layers in targets:
        for name, obj in list(vars(namespace).items()):
            layer = getattr(obj, "__module__", "").rpartition(".")[2]
            if inspect.isfunction(obj) and layer in layers:
                tracer.wrap(namespace, name, layer)
                found.add(layer)
    for layer in ("pfa", "asymptotics", "oracle", "quadrature"):
        if layer not in found:
            absent[layer] = f"no {layer} function bound where it is traced"
    return absent


def probe(cc, op: ExactOp, pinned: dict) -> dict[str, float]:
    """Median seconds of tables, rest of build_matrix, and log-det at one xi."""
    from casimir_cylinders import scattering
    pair = cc.CylinderPair(cc.Kind(op.kind), op.a, op.b, op.d)
    bc = cc.BoundaryPair[op.bc]
    args = (pair, bc, pinned["xi"], pinned["half_width"])
    build = getattr(scattering, "build_matrix", None)
    logdet = getattr(scattering, "log_det_one_minus", None)
    if build is None or logdet is None:
        raise Absent("scattering.build_matrix or log_det_one_minus is missing")
    try:
        inspect.signature(build).bind(*args, tol=pinned["tol"])
    except (TypeError, ValueError) as exc:
        raise Absent(f"scattering.build_matrix cannot be called as "
                     f"(pair, bc, xi, half_width, tol=): {exc}") from None
    tables, rest, dets = [], [], []
    for _ in range(PROBE_REPEATS):
        tracer = Tracer()
        missing = wrap_tables(tracer, scattering)
        try:
            with tracer.span("build"):
                mat = build(*args, tol=pinned["tol"])
        finally:
            tracer.unwrap_all()
        if "bessel.table" in missing:
            raise Absent(missing["bessel.table"])
        self_t = tracer.self_times()
        tables.append(self_t.get("bessel.table", 0.0))
        rest.append(self_t["build"])
        try:
            inspect.signature(logdet).bind(mat)
        except (TypeError, ValueError) as exc:
            raise Absent(f"scattering.log_det_one_minus cannot take the "
                         f"build_matrix result: {exc}") from None
        t0 = time.perf_counter()
        logdet(mat)
        dets.append(time.perf_counter() - t0)
    return {"bessel.probe_s": statistics.median(tables),
            "scattering.probe_build_s": statistics.median(rest),
            "scattering.probe_logdet_s": statistics.median(dets)}


PROBE_METRICS = ("bessel.probe_s", "scattering.probe_build_s",
                 "scattering.probe_logdet_s")


def run_probes(cc, ops, refs) -> tuple[dict, dict]:
    values = dict.fromkeys(PROBE_METRICS, 0.0)
    absent = {}
    for op in ops:
        if not isinstance(op, ExactOp):
            continue
        try:
            got = probe(cc, op, refs["probe"][op.probe_key])
        except Absent as exc:
            absent = dict.fromkeys(PROBE_METRICS, str(exc))
            break
        for name, seconds in got.items():
            values[name] += seconds
    return values, absent


# -- metrics ---------------------------------------------------------------

NO_CLEAN_PASS = "no pass passed the gate"
# per-layer metrics computed from the untraced passes that passed the gate
FROM_CLEAN_PASSES = ("scattering.s_per_matrix", "trace.overhead_s",
                     "run.cpu_s")

# per-layer metric -> (unit, traced layers it needs)
PER_LAYER = {
    "bessel.table_s": ("s", ("bessel.table",)),
    "bessel.table_calls": ("count", ("bessel.table",)),
    "bessel.orders": ("count", ("bessel.table", "bessel.orders")),
    "bessel.probe_s": ("s", ()),
    "scattering.assembly_s": ("s", ("bessel.table", "scattering.logdet")),
    "scattering.probe_build_s": ("s", ()),
    "scattering.p_window": ("count", ()),
    "scattering.n_matrix": ("count", ()),
    "scattering.logdet_s": ("s", ("scattering.logdet",)),
    "scattering.probe_logdet_s": ("s", ()),
    "scattering.matrices_built": ("count", ("scattering.logdet",)),
    "scattering.xi_nodes": ("count", ()),
    "scattering.s_per_matrix": ("s", ("scattering.logdet",)),
    "scattering.rel_err": ("ratio", ()),
    "scattering.err_ratio": ("ratio", ()),
    "quadrature.s": ("s", ("quadrature",)),
    "quadrature.calls": ("count", ("quadrature",)),
    "pfa.s": ("s", ("pfa", "quadrature")),
    "pfa.calls": ("count", ("pfa",)),
    "asymptotics.s": ("s", ("asymptotics",)),
    "oracle.s": ("s", ("oracle", "quadrature")),
    "oracle.calls": ("count", ("oracle",)),
    "cli.s": ("s", ("pfa", "asymptotics", "oracle", "quadrature")),
    "trace.wall_s": ("s", ()),
    "trace.overhead_s": ("s", ()),
    "run.cpu_s": ("s", ()),
}


def layer_values(tracer: Tracer, outcomes: list, wall_untraced: float,
                 wall_traced: float, cpu_s: float) -> dict[str, float]:
    self_t = tracer.self_times()
    counts = tracer.counts()
    exact = [o for o in outcomes if "value" in o]
    built = counts.get("scattering.logdet", (0, 0))[0]

    def top(field):
        return max((o[field] for o in exact if field in o), default=0)

    return {
        "bessel.table_s": self_t.get("bessel.table", 0.0),
        "bessel.table_calls": counts.get("bessel.table", (0, 0))[0],
        "bessel.orders": counts.get("bessel.table", (0, 0))[1],
        "scattering.assembly_s": self_t.get("scattering.driver", 0.0),
        "scattering.p_window": top("p_terms_max"),
        "scattering.n_matrix": top("n_matrix"),
        "scattering.logdet_s": self_t.get("scattering.logdet", 0.0),
        "scattering.matrices_built": built,
        "scattering.xi_nodes": top("xi_nodes"),
        "scattering.s_per_matrix": wall_untraced / built if built else 0.0,
        "scattering.rel_err": top("rel_err"),
        "scattering.err_ratio": top("err_ratio"),
        "quadrature.s": self_t.get("quadrature", 0.0),
        "quadrature.calls": counts.get("quadrature", (0, 0))[0],
        "pfa.s": self_t.get("pfa", 0.0),
        "pfa.calls": counts.get("pfa", (0, 0))[0],
        "asymptotics.s": self_t.get("asymptotics", 0.0),
        "oracle.s": self_t.get("oracle", 0.0),
        "oracle.calls": counts.get("oracle", (0, 0))[0],
        "cli.s": self_t.get("cli", 0.0),
        "trace.wall_s": wall_traced,
        "trace.overhead_s": wall_traced - wall_untraced,
        "run.cpu_s": cpu_s,
    }


def metric(value, unit: str, absent: str | None = None) -> dict:
    if absent:
        return {"value": None, "unit": unit, "absent": absent}
    return {"value": value, "unit": unit}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- modes -----------------------------------------------------------------

def timed(cc, cli, ops, refs, seconds: float) -> dict:
    """Untraced passes until the next one would overrun ``seconds``.

    ``wall_s`` and ``cpu_s`` are medians over the passes in which every
    operation passed the gate, and None when no pass did.
    """
    walls, cpus, passed, outcomes = [], [], [], []
    start = time.perf_counter()
    while True:
        wall, cpu, outs = run_pass(cc, cli, ops, refs)
        walls.append(wall)
        cpus.append(cpu)
        passed.append(all(o["reason"] is None for o in outs))
        outcomes += outs
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    clean = [i for i, ok in enumerate(passed) if ok]
    wall_s = statistics.median([walls[i] for i in clean]) if clean else None
    cpu_s = statistics.median([cpus[i] for i in clean]) if clean else None
    return {"outcomes": outcomes, "passes": walls, "passed": passed,
            "wall_s": wall_s, "cpu_s": cpu_s,
            "metrics": {"wall_s": metric(wall_s, "s",
                                         None if clean else NO_CLEAN_PASS),
                        "peak_rss_mb": metric(peak_rss_mb(), "MB")}}


def traced(cc, cli, ops, refs, seconds: float, trace_path: Path) -> dict:
    """Untraced passes as in ``timed``, then one traced pass and the probes."""
    base = timed(cc, cli, ops, refs, seconds)
    tracer = Tracer()
    absent = install_spans(tracer)
    try:
        wall_t, _, outs_t = run_pass(cc, cli, ops, refs, tracer)
    finally:
        tracer.unwrap_all()
    untimed = base["wall_s"] is None
    values = layer_values(tracer, outs_t, base["wall_s"] or 0.0, wall_t,
                          base["cpu_s"] or 0.0)
    probes, probe_absent = run_probes(cc, ops, refs)
    values.update(probes)

    metrics = {}
    for name, (unit, needs) in PER_LAYER.items():
        why = probe_absent.get(name) or next(
            (absent[layer] for layer in needs if layer in absent), None) or (
            NO_CLEAN_PASS if untimed and name in FROM_CLEAN_PASSES else None)
        metrics[name] = metric(values[name], unit, why)

    trace_path.parent.mkdir(parents=True, exist_ok=True)
    with open(trace_path, "w") as f:
        json.dump({**tracer.dump(), "absent": absent,
                   "self_s": tracer.self_times()}, f)
    return {"outcomes": base["outcomes"] + outs_t, "passes": base["passes"],
            "passed": base["passed"], "traced_pass": wall_t,
            "self_sum_s": sum(tracer.self_times().values()),
            "trace_file": str(trace_path.relative_to(ROOT)),
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--setup", action="store_true")
    p.add_argument("--workload", choices=sorted({**WORKLOADS, **SMOKE}))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    cc = bootstrap()
    run_exact(cc, WARM_UP, WARM_UP.rel_tol)
    if args.setup:
        return 0
    if args.workload is None:
        p.error("--workload is required unless --setup")
    from casimir_cylinders import cli
    with open(REFS) as f:
        refs = json.load(f)
    ops = operations(args.workload, args.seed)
    if args.trace:
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        out = traced(cc, cli, ops, refs, args.seconds, path)
    else:
        out = timed(cc, cli, ops, refs, args.seconds)
    failures = [o for o in out["outcomes"] if o["reason"]]
    out.update(workload=args.workload, seed=args.seed,
               order=[op.key for op in ops], fingerprint=fingerprint(),
               attempted=len(out["outcomes"]), failed=len(failures),
               failures=failures)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
