"""Compute the pinned references in ``refs.json``.

    python3 perfbench/make_refs.py     # ~6 minutes on 2 cores

Each exact operation's reference is the same public call at the
operation's ``ref_rel_tol``, at least 100x tighter than the tolerance it is
gated at; it must report ``converged=True``.  The probe point of each
operation (its final N, and the xi grid node nearest 1/d at its final grid)
comes from one run at the operation's own tolerance and is pinned with the
reference, so probes keep measuring the same matrix when the drivers change.
Sweep references are the records of one ``cli.main`` call.  Every entry
keeps the call that produced it.  Each run recomputes every entry and
replaces ``refs.json`` once all are done, so the environment fingerprint in
its provenance is the one that produced every value.
"""
from __future__ import annotations

import json
import sys
import time

import worker
from workloads import SMOKE, WORKLOADS, CliOp, ExactOp

COMMAND = "python3 perfbench/make_refs.py"


def probe_point(cc, op: ExactOp) -> dict:
    from casimir_cylinders.scattering import _BASE_NODES, _xi_grid
    res = worker.run_exact(cc, op, op.rel_tol)
    level = (res.xi_nodes // _BASE_NODES).bit_length() - 1
    xi, _ = _xi_grid(op.d, level)
    node = float(xi[abs(xi - 1.0 / op.d).argmin()])
    # the element tolerance the driver uses at this operation's final grid;
    # a force runs its energies at 1e-3 * rel_tol
    tol = 1e-3 * op.rel_tol * (1e-3 if op.quantity == "force" else 1.0)
    return {"xi": node, "half_width": res.n_matrix, "tol": max(1e-13, tol),
            "from": op.call_text(op.rel_tol)}


def main() -> int:
    cc = worker.bootstrap()
    from casimir_cylinders import cli
    refs = {"provenance": {"command": COMMAND,
                           "fingerprint": worker.fingerprint()},
            "exact": {}, "probe": {}, "cli": {}}
    ops = {op.key if isinstance(op, CliOp) else op.probe_key: op
           for group in (*WORKLOADS.values(), *SMOKE.values()) for op in group}
    for op in ops.values():
        if isinstance(op, CliOp) and op.argv[0] == "sweep":
            code, stdout = worker.run_cli(cli, op)
            if code != 0:
                raise SystemExit(f"{op.key}: exit code {code}")
            refs["cli"][op.key] = {"records": worker.sweep_records(stdout),
                                   "command": f"cli.main({list(op.argv)!r})"}
    exact = [op for op in ops.values() if isinstance(op, ExactOp)]
    for op in sorted(exact, key=lambda op: (op.quantity == "force", -op.d)):
        if op.key not in refs["exact"]:     # one reference per geometry
            t0 = time.perf_counter()
            res = worker.run_exact(cc, op, op.ref_rel_tol)
            if not res.converged:
                raise SystemExit(f"{op.key}: reference did not converge")
            refs["exact"][op.key] = {
                "value": res.value_per_length, "err_est": res.err_est,
                "rel_tol": op.ref_rel_tol, "n_matrix": res.n_matrix,
                "xi_nodes": res.xi_nodes,
                "seconds": round(time.perf_counter() - t0, 1),
                "command": f"{COMMAND}: {op.call_text(op.ref_rel_tol)}"}
            print(op.key, refs["exact"][op.key], file=sys.stderr, flush=True)
        refs["probe"][op.probe_key] = probe_point(cc, op)
    with open(worker.REFS, "w") as f:
        json.dump(refs, f, indent=1, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
