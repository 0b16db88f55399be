"""The ``REPRO_BACKEND=auto`` rule.

``auto`` is not a fourth execution strategy but one rule for local
fan-out: ``serial`` on a machine with one usable CPU (fan-out of any
kind only adds overhead there) and ``process`` otherwise. The CPU count
is the affinity-aware :func:`repro.sim.experiments.available_cpus`; no
probe, subprocess or timing loop runs. A ``process`` batch that cannot
fork its workers degrades on its own (:mod:`repro.exec.process`).

Every pick is returned as a :class:`BackendChoice`, and the runner
records it as a ``backend-choice`` runlog record, so a recorded campaign
states not just which backend ran it but *why*.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class BackendChoice:
    """One auto-pick: the resolved backend and the inputs that drove it."""

    backend: str
    cpus: int
    reason: str

    def to_record(self) -> dict:
        """The runlog payload for a ``backend-choice`` record."""
        return asdict(self)


def auto_pick(cpus: int | None = None) -> BackendChoice:
    """Resolve ``auto`` to a concrete local backend; ``cpus`` overrides
    the affinity-aware count."""
    from repro.sim import experiments  # runtime import: cycle guard

    if cpus is None:
        cpus = experiments.available_cpus()
    if cpus <= 1:
        return BackendChoice(
            "serial", cpus,
            "single usable CPU: any fan-out only adds overhead")
    return BackendChoice(
        "process", cpus,
        f"{cpus} usable CPUs: worker processes run tasks in parallel")
