"""The declarative scenario protocol: one grid language for every run.

Every result in the reproduction is a point on a grid of independent
simulated runs — approaches × sizes × threads × noise × ... — yet the
two benchmark families historically spoke different dialects
(:class:`~repro.bench.harness.BenchSpec` for the two-rank Fig. 3 harness,
:class:`~repro.apps.base.PatternConfig` for N-rank application
patterns).  A :class:`Scenario` wraps either behind one serializable
protocol:

* ``to_dict()`` / ``from_dict()`` round-trip the full spec (including
  the nested :class:`~repro.net.params.SystemParams` machine model and
  :class:`~repro.mpi.cvars.Cvars` runtime knobs) *and* the execution
  backend — the backend is part of a scenario's identity;
* ``content_hash()`` is a stable SHA-256 over the canonical JSON form
  (an analytic result can never be confused with a simulated one: the
  backend tag is inside the hash);
* :func:`execute` runs the point through its backend
  (:mod:`repro.backends`); :func:`result_to_dict` /
  :func:`result_from_dict` serialize the outcome (statistics are
  recomputed on load, never trusted from the file).

A :class:`ScenarioGrid` expands axis specs into scenarios in a
deterministic order (row-major over the axes in declaration order), so
grid expansion — and therefore result ordering — is reproducible.  Its
own ``content_hash()`` names the campaign root that holds the grid's
results in a store directory (:func:`~repro.runner.executor.run_grids`,
``--store DIR``).

Imports of the bench/apps layers happen lazily inside functions: the
sweep modules of both layers submit their grids here, and eager imports
would cycle.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Sequence, Tuple

__all__ = [
    "SCHEMA",
    "GRID_SCHEMA",
    "Scenario",
    "ScenarioGrid",
    "scenario_for",
    "execute",
    "result_to_dict",
    "result_from_dict",
]

#: Version tag baked into every serialized scenario (and therefore into
#: every content hash): bumping it invalidates caches when the scenario
#: semantics change.  v2 added the execution backend to the scenario
#: identity.
SCHEMA = "repro.runner/v2"

#: Version tag of the serialized declarative grid form
#: (:meth:`ScenarioGrid.to_dict`), baked into every campaign identity.
#: v2 added the explicit ``axis_order`` list: axis declaration order
#: *is* the row-major index mapping, and a JSON object's key order
#: does not survive key-sorted serialization (the campaign header and
#: every content hash are written with ``sort_keys=True``, which
#: alphabetized the axes dict and silently remapped indices on
#: reopen) — a list does.
GRID_SCHEMA = "repro.runner.grid/v2"

#: Grid schema tags :meth:`ScenarioGrid.from_dict` accepts.  v1
#: payloads (no ``axis_order``) parse with their axes dict's order —
#: correct only when that order survived serialization, which is why
#: v2 exists.
_GRID_SCHEMAS = (None, "repro.runner.grid/v1", GRID_SCHEMA)

#: The default execution backend (the full discrete-event simulator).
DEFAULT_BACKEND = "sim"

#: Scenario kinds and the spec dataclass each one wraps.
KIND_BENCH = "bench"
KIND_PATTERN = "pattern"


def _spec_types() -> Dict[str, type]:
    from ..apps.base import PatternConfig
    from ..bench.harness import BenchSpec

    return {KIND_BENCH: BenchSpec, KIND_PATTERN: PatternConfig}


def _rebuild_spec(kind: str, fields: Mapping[str, Any]):
    from ..mpi import Cvars
    from ..net import SystemParams

    types = _spec_types()
    if kind not in types:
        raise ValueError(f"unknown scenario kind {kind!r}")
    data = dict(fields)
    data["params"] = SystemParams(**data["params"])
    data["cvars"] = Cvars(**data["cvars"])
    return types[kind](**data)


@dataclass(frozen=True)
class Scenario:
    """One grid point: a kind tag, its frozen spec dataclass, and the
    execution backend it runs under (part of the content identity)."""

    kind: str
    spec: Any  # BenchSpec | PatternConfig (both frozen dataclasses)
    backend: str = DEFAULT_BACKEND

    def with_backend(self, backend: str) -> "Scenario":
        """The same grid point under a different execution backend."""
        return Scenario(kind=self.kind, spec=self.spec, backend=backend)

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe canonical form (nested params/cvars as dicts)."""
        return {
            "schema": SCHEMA,
            "kind": self.kind,
            "backend": self.backend,
            "spec": dataclasses.asdict(self.spec),
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Scenario":
        """Inverse of :meth:`to_dict`."""
        if payload.get("schema") != SCHEMA:
            raise ValueError(
                f"unrecognized scenario schema {payload.get('schema')!r}"
            )
        kind = payload["kind"]
        return cls(
            kind=kind,
            spec=_rebuild_spec(kind, payload["spec"]),
            backend=payload.get("backend", DEFAULT_BACKEND),
        )

    def canonical_json(self) -> str:
        """Canonical JSON: sorted keys, no whitespace — the hash input."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    def content_hash(self) -> str:
        """Stable SHA-256 hex digest of the canonical form."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

def scenario_for(spec: Any, backend: str = DEFAULT_BACKEND) -> Scenario:
    """Wrap a bare spec dataclass, inferring its kind from the type."""
    for kind, typ in _spec_types().items():
        if isinstance(spec, typ):
            return Scenario(kind=kind, spec=spec, backend=backend)
    raise TypeError(f"not a known scenario spec: {spec!r}")


# -- execution ---------------------------------------------------------------

def execute(scenario: Scenario):
    """Run one scenario through its backend, returning its native
    result object (see :mod:`repro.backends`)."""
    from ..backends import get_backend

    backend = get_backend(scenario.backend)
    if not backend.supports(scenario):
        raise ValueError(
            f"backend {scenario.backend!r} does not support {scenario!r}"
        )
    return backend.run(scenario)


def result_to_dict(scenario: Scenario, result: Any) -> dict:
    """Serialize a result: raw samples plus kind-specific extras.

    Derived statistics are deliberately omitted — they are recomputed by
    :func:`result_from_dict`, so a store never serves stale stats.
    """
    if scenario.kind == KIND_BENCH:
        return {
            "times": [float(t) for t in result.times],
            "retries": int(result.retries),
            "verified": bool(result.verified),
        }
    return {
        "times": [float(t) for t in result.times],
        "bytes_per_iteration": int(result.bytes_per_iteration),
        "n_links": int(result.n_links),
    }


def result_from_dict(scenario: Scenario, payload: Mapping[str, Any]):
    """Rebuild the native result object for ``scenario`` from a dict."""
    from ..bench.stats import summarize

    times = [float(t) for t in payload["times"]]
    if scenario.kind == KIND_BENCH:
        from ..bench.harness import BenchResult

        return BenchResult(
            spec=scenario.spec,
            times=times,
            stats=summarize(times),
            retries=int(payload["retries"]),
            verified=bool(payload["verified"]),
        )
    from ..apps.base import PatternResult

    return PatternResult(
        config=scenario.spec,
        times=times,
        stats=summarize(times),
        bytes_per_iteration=int(payload["bytes_per_iteration"]),
        n_links=int(payload["n_links"]),
    )


# -- grids -------------------------------------------------------------------

class ScenarioGrid:
    """Declarative cross-product of scenario axes.

    Parameters
    ----------
    kind:
        ``"bench"`` or ``"pattern"``.
    base:
        Fixed spec fields shared by every point (e.g. ``iterations``,
        ``params``, ``cvars``).
    axes:
        Ordered mapping of spec field → sequence of values.  Expansion
        is row-major in declaration order: the last axis varies fastest.
    backend:
        Execution backend tag stamped on every scenario of the grid.

    Example
    -------
    >>> grid = ScenarioGrid(
    ...     "bench",
    ...     base={"iterations": 3},
    ...     axes={"approach": ["pt2pt_single", "pt2pt_part"],
    ...           "total_bytes": [1024, 4096]},
    ... )
    >>> len(grid)
    4
    """

    def __init__(
        self,
        kind: str,
        base: Mapping[str, Any] | None = None,
        axes: Mapping[str, Sequence[Any]] | None = None,
        backend: str = DEFAULT_BACKEND,
    ):
        if kind not in (KIND_BENCH, KIND_PATTERN):
            raise ValueError(f"unknown scenario kind {kind!r}")
        self.kind = kind
        self.backend = backend
        self.base: Dict[str, Any] = dict(base or {})
        self.axes: Dict[str, Sequence[Any]] = dict(axes or {})
        for name, values in self.axes.items():
            if name in self.base:
                raise ValueError(f"axis {name!r} also fixed in base")
            if not len(values):
                raise ValueError(f"axis {name!r} is empty")

    @classmethod
    def from_spec(
        cls,
        spec: Any,
        axes: Mapping[str, Sequence[Any]],
        backend: str = DEFAULT_BACKEND,
    ) -> "ScenarioGrid":
        """The grid that varies ``axes`` around one spec: its base is
        every other field of ``spec`` (kind inferred from the type), so
        each point equals ``dataclasses.replace(spec, **assignment)``."""
        base = {
            f.name: getattr(spec, f.name)
            for f in dataclasses.fields(spec)
            if f.name not in axes
        }
        kind = scenario_for(spec).kind
        return cls(kind, base=base, axes=axes, backend=backend)

    def points(self) -> Iterator[Tuple[Dict[str, Any], "Scenario"]]:
        """Yield ``(axis_assignment, scenario)`` pairs in grid order."""
        spec_type = _spec_types()[self.kind]
        names = list(self.axes)
        for combo in itertools.product(*(self.axes[n] for n in names)):
            assignment = dict(zip(names, combo))
            spec = spec_type(**{**self.base, **assignment})
            yield assignment, Scenario(
                kind=self.kind, spec=spec, backend=self.backend
            )

    def expand(self) -> List[Scenario]:
        """All scenarios of the grid, in deterministic row-major order."""
        return [scenario for _, scenario in self.points()]

    def __len__(self) -> int:
        n = 1
        for values in self.axes.values():
            n *= len(values)
        return n

    # -- index addressing ----------------------------------------------------
    # Expansion order is row-major (last axis fastest), so a grid point
    # is addressed by one integer: its position in expand().  The
    # campaign pipeline leans on this — a million-point campaign stores
    # (index, result) rows instead of a content hash per point, and any
    # point decodes back without expanding the grid.

    def _strides(self) -> Dict[str, int]:
        strides: Dict[str, int] = {}
        stride = 1
        for name in reversed(list(self.axes)):
            strides[name] = stride
            stride *= len(self.axes[name])
        return strides

    def assignment_at(self, index: int) -> Dict[str, Any]:
        """The axis assignment of grid point ``index`` (mixed-radix
        decode of the row-major position; O(axes), not O(grid))."""
        if not 0 <= index < len(self):
            raise IndexError(f"grid index {index} out of range")
        strides = self._strides()
        return {
            name: values[(index // strides[name]) % len(values)]
            for name, values in self.axes.items()
        }

    def scenario_at(self, index: int) -> "Scenario":
        """Grid point ``index`` as a full :class:`Scenario`."""
        spec_type = _spec_types()[self.kind]
        spec = spec_type(**{**self.base, **self.assignment_at(index)})
        return Scenario(kind=self.kind, spec=spec, backend=self.backend)

    def axis_columns(self, indices) -> Dict[str, Any]:
        """Axis values for many indices at once, as numpy columns.

        The vectorized decode behind analytic campaign chunks: grid
        indices go straight to per-axis value arrays (``np.take`` over
        the axis value lists) without constructing a single spec object.
        """
        import numpy as np

        indices = np.asarray(indices, dtype=np.int64)
        if len(indices) and (
            indices.min() < 0 or indices.max() >= len(self)
        ):
            raise IndexError("grid indices out of range")
        strides = self._strides()
        columns: Dict[str, Any] = {}
        for name, values in self.axes.items():
            digits = (indices // strides[name]) % len(values)
            columns[name] = np.take(np.asarray(values), digits)
        return columns

    def validate(self) -> None:
        """Fail fast on bad axis/base values: build one spec per axis
        value (holding the other axes at their first value), so every
        value passes through the spec dataclass's own ``__post_init__``
        validation before a single point executes."""
        spec_type = _spec_types()[self.kind]
        first = {name: values[0] for name, values in self.axes.items()}
        spec_type(**{**self.base, **first})
        for name, values in self.axes.items():
            for value in values[1:]:
                spec_type(**{**self.base, **first, name: value})

    def axis_codes(self, name: str, indices) -> Any:
        """Positions into ``axes[name]`` for many indices at once — the
        factorized form of :meth:`axis_columns` for categorical axes
        (no value materialization, no string hashing)."""
        import numpy as np

        indices = np.asarray(indices, dtype=np.int64)
        return (indices // self._strides()[name]) % len(self.axes[name])

    def axis_codes_for_indices(self, indices) -> Dict[str, Any]:
        """Codes for *every* axis over many indices at once.

        The fully vectorized row-major decode: one ``//`` + ``%`` over
        the whole index array per axis, replacing the per-point digit
        loop everywhere a batch of indices needs its assignments
        (columnar query filters, ``export --format npz``, slice
        reports).  Returns ``{axis name: int64 code array}``; axis
        values are ``axes[name][code]``.
        """
        import numpy as np

        indices = np.asarray(indices, dtype=np.int64)
        strides = self._strides()
        return {
            name: (indices // strides[name]) % len(values)
            for name, values in self.axes.items()
        }

    def kernel_columns(
        self,
        indices,
        fields: Sequence[str],
        categorical: Sequence[str] = (),
    ) -> Dict[str, Any]:
        """Kernel-ready columns for ``fields`` over many grid indices.

        The one decode both analytic campaign chunk builders (bench
        *and* pattern) share: each requested field becomes either a
        decoded axis column (:meth:`axis_columns`), a broadcastable base
        scalar, or — for ``categorical`` fields — a ``(values, codes)``
        pair with the codes taken straight from the grid digits
        (:meth:`axis_codes`: no value materialization, no string
        hashing over the batch).  Fields in neither the axes nor the
        base are omitted, so the kernels apply their spec defaults.
        """
        import numpy as np

        indices = np.asarray(indices, dtype=np.int64)
        if len(indices) and (
            indices.min() < 0 or indices.max() >= len(self)
        ):
            raise IndexError("grid indices out of range")
        strides = self._strides()
        columns: Dict[str, Any] = {}
        for name in fields:
            if name in self.axes:
                values = self.axes[name]
                digits = (indices // strides[name]) % len(values)
                if name in categorical:
                    columns[name] = (list(values), digits)
                else:
                    columns[name] = np.take(np.asarray(values), digits)
            elif name in self.base:
                columns[name] = self.base[name]
        return columns

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe declarative form (the campaign-header grid spec).

        ``params``/``cvars`` dataclasses in ``base`` are expanded to
        dicts; axis values must already be JSON scalars.
        """
        base: Dict[str, Any] = {}
        for name, value in self.base.items():
            if dataclasses.is_dataclass(value):
                base[name] = dataclasses.asdict(value)
            else:
                base[name] = value
        for name, values in self.axes.items():
            for value in values:
                if not isinstance(value, (str, int, float, bool)):
                    raise TypeError(
                        f"axis {name!r} value {value!r} is not a JSON "
                        f"scalar; campaign grids need serializable axes"
                    )
        return {
            "schema": GRID_SCHEMA,
            "kind": self.kind,
            "backend": self.backend,
            "base": base,
            # Expansion order is part of the grid's identity (it IS
            # the index mapping); the list carries it through any
            # key-sorting serializer, the dict alone would not.
            "axis_order": list(self.axes),
            "axes": {name: list(values) for name, values in self.axes.items()},
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "ScenarioGrid":
        """Inverse of :meth:`to_dict`."""
        from ..mpi import Cvars
        from ..net import SystemParams

        if payload.get("schema") not in _GRID_SCHEMAS:
            raise ValueError(
                f"unrecognized grid schema {payload.get('schema')!r}"
            )
        base = dict(payload.get("base", {}))
        if "params" in base and isinstance(base["params"], Mapping):
            base["params"] = SystemParams(**base["params"])
        if "cvars" in base and isinstance(base["cvars"], Mapping):
            base["cvars"] = Cvars(**base["cvars"])
        axes_payload = payload.get("axes", {})
        order = payload.get("axis_order")
        if order is None:
            order = list(axes_payload)
        elif sorted(order) != sorted(axes_payload):
            raise ValueError(
                f"axis_order {order!r} does not match axes "
                f"{sorted(axes_payload)!r}"
            )
        return cls(
            kind=payload["kind"],
            base=base,
            axes={name: list(axes_payload[name]) for name in order},
            backend=payload.get("backend", DEFAULT_BACKEND),
        )

    def canonical_json(self) -> str:
        """Canonical JSON of the declarative form (the hash input)."""
        return json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )

    def content_hash(self) -> str:
        """Stable SHA-256 identifying this grid (kind, base, axes,
        backend) — the campaign identity every segment is tagged with."""
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def __repr__(self) -> str:  # pragma: no cover - debug repr
        dims = "x".join(str(len(v)) for v in self.axes.values()) or "1"
        return f"<ScenarioGrid {self.kind} {dims} ({len(self)} points)>"
