"""Fixed workload definitions for the benchmark.

Standard library only: ``run.py`` imports this module before any child
process exists, and thread pins must be in place before numpy loads.

Every exact operation is gated against a pinned reference in ``refs.json``
(see ``make_refs.py``); geometries are therefore fixed, and the seed only
sets the order of operations inside ``energy-regimes`` and ``closed-forms``.
"""
from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class ExactOp:
    """One call to ``casimir_energy_exact`` or ``casimir_force_exact``."""

    quantity: str          # "energy" or "force"
    kind: str              # "interior" or "exterior"
    bc: str                # scalar pair: "DD", "NN", "DN", "ND"
    a: float
    b: float
    d: float
    rel_tol: float
    ref_rel_tol: float     # tolerance the pinned reference was computed at

    @property
    def key(self) -> str:
        """Reference key: the quantity and geometry, not the tolerance."""
        return (f"{self.quantity}/{self.kind}/{self.bc}/a={self.a!r}/"
                f"b={self.b!r}/d={self.d!r}")

    @property
    def probe_key(self) -> str:
        """Probe key: the final N and xi node depend on the tolerance too."""
        return f"{self.key}/rel_tol={self.rel_tol!r}"

    def call_text(self, rel_tol: float) -> str:
        fn = f"casimir_{self.quantity}_exact"
        return (f"{fn}(CylinderPair(Kind.{self.kind.upper()}, {self.a!r}, "
                f"{self.b!r}, {self.d!r}), BoundaryPair.{self.bc}, "
                f"rel_tol={rel_tol!r})")


@dataclass(frozen=True)
class CliOp:
    """One in-process ``cli.main(argv)`` call."""

    argv: tuple[str, ...]

    @property
    def key(self) -> str:
        return " ".join(self.argv)


def _energy(kind, bc, d, a=1.0, b=2.0):
    return ExactOp("energy", kind, bc, a, b, d, rel_tol=1e-4, ref_rel_tol=1e-6)


ENERGY_SMALL_GAP = (_energy("interior", "DD", 0.1),)

# d=0.5 stands in for d=0.2 until the force no longer needs a six-energy
# stencil at 1e-3 * rel_tol; the reference is the same route 100x tighter.
FORCE_STENCIL = (ExactOp("force", "interior", "DD", 1.0, 2.0, 0.5,
                         rel_tol=1e-3, ref_rel_tol=1e-5),)

ENERGY_REGIMES = (
    _energy("interior", "DD", 0.5),
    _energy("interior", "DN", 0.2),
    _energy("exterior", "DD", 0.2),
)

SWEEP_GRID = "0.01:0.5:8"
SWEEP_METHODS = "pfa-leading,asymptotic,pfa-integral"
SWEEP_BCS = ("dd", "nn", "dn", "nd", "pcpc", "pcip")


def sweep_op(kind: str, bc: str) -> CliOp:
    return CliOp(("sweep", "--kind", kind, "--bc", bc, "--a", "1", "--b", "2",
                  "--quantity", "force", "--method", SWEEP_METHODS,
                  "--d-grid", SWEEP_GRID, "--format", "json", "--no-timing",
                  "--parallel", "1"))


CLOSED_FORMS = tuple(sweep_op(kind, bc) for kind in ("interior", "exterior")
                     for bc in SWEEP_BCS) + (
    CliOp(("verify", "--suite", "all", "--level", "slow")),)

WORKLOADS = {
    "energy-small-gap": ENERGY_SMALL_GAP,
    "force-stencil": FORCE_STENCIL,
    "energy-regimes": ENERGY_REGIMES,
    "closed-forms": CLOSED_FORMS,
}

# Smoke instances: the same code paths at a size that runs in seconds.
SMOKE = {
    "smoke-exact": (ExactOp("energy", "interior", "DD", 1.0, 2.0, 0.5,
                            rel_tol=1e-2, ref_rel_tol=1e-6),),
    "smoke-cli": (sweep_op("interior", "dd"),
                  CliOp(("verify", "--suite", "all", "--level", "fast"))),
}


def operations(workload: str, seed: int) -> list:
    """The workload's operations in the order the seed selects."""
    ops = list({**WORKLOADS, **SMOKE}[workload])
    random.Random(seed).shuffle(ops)
    return ops
