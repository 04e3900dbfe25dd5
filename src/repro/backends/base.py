"""The :class:`Backend` protocol: pluggable scenario execution.

A backend turns a :class:`~repro.runner.scenario.Scenario` into its
native result object.  Two implementations ship with the repo:

* :class:`~repro.backends.sim.SimBackend` — full discrete-event
  simulation (the historical execution path);
* :class:`~repro.backends.analytic.AnalyticBackend` — the paper's
  closed-form model extended to every approach and pattern; points cost
  microseconds instead of seconds, making million-point grids feasible.

The backend is part of a scenario's *identity*: it is serialized with
the spec and baked into the scenario and grid content hashes, so a
store can never confuse an analytic result with a simulated one (the
two grids live in different campaign roots).
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence, Type

__all__ = [
    "Backend",
    "BACKENDS",
    "BACKEND_SIM",
    "BACKEND_ANALYTIC",
    "register_backend",
    "get_backend",
    "backend_names",
]

#: Canonical backend names.
BACKEND_SIM = "sim"
BACKEND_ANALYTIC = "analytic"


class Backend:
    """Base class for execution backends.

    Subclasses override :meth:`run` and (where coverage is partial)
    :meth:`supports`.  Backends are stateless; one shared instance per
    registered class is handed out by :func:`get_backend`.
    """

    #: Registry key (also the ``Scenario.backend`` tag).
    name = "abstract"
    #: True when a batch of scenarios is cheap enough to always run
    #: in-process: the executor skips the multiprocessing pool for
    #: inline backends (fork/pickle overhead would dwarf the work).
    inline = False

    def supports(self, scenario: Any) -> bool:
        """Can this backend execute ``scenario``?  Default: yes."""
        return True

    def run(self, scenario: Any) -> Any:
        """Execute ``scenario``, returning its native result object
        (:class:`~repro.bench.harness.BenchResult` or
        :class:`~repro.apps.base.PatternResult`)."""
        raise NotImplementedError

    def run_batch(self, scenarios: Sequence[Any]) -> List[Any]:
        """Execute a batch, returning native results in input order.

        The default is the point-at-a-time loop (what the simulator
        needs: every scenario is its own discrete-event run).  Backends
        whose per-point math is cheap override this with a genuinely
        batched implementation — the analytic backend evaluates the
        whole batch through the vectorized model kernel
        (:mod:`repro.model.vector`) — under the contract that
        ``run_batch(xs)[i]`` is identical to ``run(xs[i])``
        (bit-for-bit; asserted by the batch-equivalence tests).
        """
        return [self.run(scenario) for scenario in scenarios]

    def __repr__(self) -> str:  # pragma: no cover - debug repr
        return f"<{type(self).__name__} {self.name!r}>"


#: Registry: backend name -> class.
BACKENDS: Dict[str, Type[Backend]] = {}
_instances: Dict[str, Backend] = {}


def register_backend(cls: Type[Backend]) -> Type[Backend]:
    """Class decorator adding a backend to the registry."""
    if cls.name in BACKENDS:
        raise ValueError(f"duplicate backend name {cls.name!r}")
    BACKENDS[cls.name] = cls
    return cls


def backend_names() -> list:
    """Registered backend names, sorted."""
    return sorted(BACKENDS)


def get_backend(name: str) -> Backend:
    """The shared instance of the backend registered as ``name``."""
    if name not in BACKENDS:
        raise KeyError(
            f"unknown backend {name!r}; choose from {backend_names()}"
        )
    if name not in _instances:
        _instances[name] = BACKENDS[name]()
    return _instances[name]
