"""The benchmark's own smoke test, on instances that run in seconds.

    python3 perfbench/smoke.py

Checks, through ``run.py``, the entry point named in BENCHMARK.json:
- every metric named in BENCHMARK.json is emitted with its unit, in the mode
  it belongs to, and the result line has exactly the contract's keys;
- traced self times sum to no more than the traced pass;
- a deliberately wrong exact reference, and a sweep record moved by 1e-9,
  each count as a failed operation, and wall_s then reads absent;
- with build_matrix removed and the table signatures changed, the probes
  and bessel.orders read absent while the run and its gate go on;
- a directory holding only BENCHMARK.json and the benchmark exits non-zero
  without printing a result.
Exits 0 when every check holds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys

from worker import OUT_DIR, REFS, ROOT
from workloads import SMOKE

RUN = ["perfbench/run.py", "--seed", "7", "--seconds", "1"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

# A stand-in for a later refactor: build_matrix removed, and the Bessel
# tables taking differently named arguments.  The worker must mark the
# probes and bessel.orders absent and still run and gate the workload.
REFACTORED = """
import sys, worker
boot = worker.bootstrap
def refactored():
    cc = boot()
    from casimir_cylinders import scattering
    del scattering.build_matrix
    for name in [n for n in vars(scattering) if n.endswith("_table")]:
        fn = getattr(scattering, name)
        setattr(scattering, name, lambda x, count, fn=fn: fn(x, count))
    return cc
worker.bootstrap = refactored
sys.exit(worker.main(["--workload", "smoke-exact", "--trace", "1", "--seconds", "1"]))
"""
# The worker pointed at a copy of refs.json with one exact value and one
# sweep record altered.
WRONG_REFS = """
import sys, worker
from pathlib import Path
worker.REFS = Path(sys.argv[1])
sys.exit(worker.main(["--workload", sys.argv[2], "--trace", "0", "--seconds", "1"]))
"""
EXPECT_ABSENT = {"bessel.orders", "bessel.probe_s", "scattering.probe_build_s",
                 "scattering.probe_logdet_s"}


def run(args: list[str], cwd=ROOT) -> tuple[int, list[str]]:
    done = subprocess.run([sys.executable, *RUN, *args], cwd=cwd, timeout=170,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    return done.returncode, done.stdout.splitlines()


def check(ok: bool, what: str, problems: list[str]) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        problems.append(what)


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    problems: list[str] = []
    for workload in SMOKE:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            code, lines = run(["--workload", workload, "--trace", str(trace)])
            check(code == 0 and bool(lines), f"{workload} trace {trace} runs",
                  problems)
            if code or not lines:
                continue
            result = json.loads(lines[-1])
            check(set(result) == RESULT_KEYS and result["correct"]
                  and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{workload} trace {trace}: correct result line", problems)
            want = {m["name"]: m["unit"] for m in bench[group]}
            got = {k: m["unit"] for k, m in result["metrics"].items()
                   if isinstance(m.get("value"), (int, float))}
            check(got == want, f"{workload} trace {trace}: every {group} "
                  f"metric with its unit (missing {set(want) - set(got)}, "
                  f"extra {set(got) - set(want)})", problems)
            if trace:
                rec = json.loads(lines[-2])["run"][0]
                check(rec["self_sum_s"] <= rec["traced_pass"],
                      f"{workload}: self times {rec['self_sum_s']:.4f} s "
                      f"within the traced pass {rec['traced_pass']:.4f} s",
                      problems)

    with open(REFS) as f:
        refs = json.load(f)
    exact_key = SMOKE["smoke-exact"][0].key
    refs["exact"][exact_key]["value"] *= 1.1
    sweep_key = SMOKE["smoke-cli"][0].key
    refs["cli"][sweep_key]["records"][0][2] *= 1 + 1e-9
    OUT_DIR.mkdir(exist_ok=True)
    wrong = OUT_DIR / "refs-wrong.json"
    wrong.write_text(json.dumps(refs))
    for workload in SMOKE:
        done = subprocess.run([sys.executable, "-c", WRONG_REFS, str(wrong),
                               workload], cwd=ROOT / "perfbench", timeout=170,
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              text=True)
        result = (json.loads(done.stdout.splitlines()[-1])
                  if done.returncode == 0 else {})
        wall = result.get("metrics", {}).get("wall_s", {})
        check(result.get("failed", 0) >= 1 and wall.get("value", 0) is None
              and "absent" in wall,
              f"{workload}: a wrong reference counts as failed "
              f"({result.get('failed')}/{result.get('attempted')}) and "
              f"wall_s reads absent", problems)

    done = subprocess.run([sys.executable, "-c", REFACTORED], cwd=ROOT / "perfbench",
                          timeout=170, stdout=subprocess.PIPE, text=True)
    result = json.loads(done.stdout.splitlines()[-1]) if done.returncode == 0 else {}
    absent = {k for k, m in result.get("metrics", {}).items() if "absent" in m}
    check(result.get("failed") == 0 and absent == EXPECT_ABSENT,
          f"after a refactor, absent metrics {sorted(absent)} "
          "and the gate still passes", problems)

    bare = OUT_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    code, lines = run(["--workload", "smoke-exact", "--trace", "0"], cwd=bare)
    check(code != 0 and not any(line.startswith("{\"correct\"") for line in lines),
          f"without src/ the benchmark exits {code} and prints no result",
          problems)
    shutil.rmtree(bare)

    print("smoke:", "ok" if not problems else f"{len(problems)} FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
