"""Spans around the public functions of each hflkit layer.

The tracer wraps functions where their callers look them up (a name
imported into several modules is replaced in each of them), so nothing
under ``src/`` changes.  Each span records its name, start, end, parent
span and request id in flat arrays kept in memory.  Time spent in the
tracer's own bookkeeping is taken off a virtual clock, so span durations
and self times stay close to an untraced run.
"""

from __future__ import annotations

import time
from array import array
from typing import Any, Callable

import hflkit.cli as cli
import hflkit.complexes as complexes
import hflkit.kauffman as kauffman
import hflkit.laurent as laurent
import hflkit.longitude as longitude
import hflkit.matrices as matrices
import hflkit.satellite as satellite

_clock = time.perf_counter


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("d")
        self.end = array("d")
        self.current_request = -1
        self._stack: list[int] = []
        self._paused = 0.0
        self._undo: list[tuple[Any, str, Any]] = []
        # Counts taken at the span boundaries.
        self.snf_entries = 0
        self.snf_empty = 0
        self.max_coeff_bits = 0
        self.generators = 0
        self.states = 0
        self.homology_repeats = 0
        self.density_sum = 0.0
        self.density_n = 0
        self._seen_complexes: set = set()

    def begin_request(self, request_id: int) -> None:
        self.current_request = request_id
        self._seen_complexes = set()

    def wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        """Return fn recording a span named ``name``; after(args, result) counts."""
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)

        def traced(*args, **kwargs):
            entered = _clock()
            span = len(self.start)
            self.name.append(name_id)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.request.append(self.current_request)
            self.start.append(0.0)
            self.end.append(0.0)
            self._stack.append(span)
            began = _clock()
            self._paused += began - entered
            self.start[span] = began - self._paused
            try:
                result = fn(*args, **kwargs)
            finally:
                stopped = _clock()
                self.end[span] = stopped - self._paused
                self._stack.pop()
            if after is not None:
                after(args, result)
            self._paused += _clock() - stopped
            return result

        return traced

    def patch(self, owners: list, attr: str, name: str, after: Callable | None = None) -> None:
        """Replace ``attr`` on every owner (module or class) by one traced wrapper."""
        first = owners[0]
        raw = first.__dict__[attr] if isinstance(first, type) else getattr(first, attr)
        if isinstance(raw, classmethod):
            traced = staticmethod(self.wrap(name, getattr(first, attr), after))
        else:
            traced = self.wrap(name, raw, after)
        for owner in owners:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._undo.append((owner, attr, original))
            setattr(owner, attr, traced)

    def install(self) -> None:
        for handler in (
            "cmd_hfl", "cmd_whitehead", "cmd_alexander_torus",
            "cmd_alexander_satellite", "cmd_kauffman", "cmd_verify",
        ):
            self.patch([cli], handler, "cli.handler")
        self.patch([cli.ReportDocument], "to_json", "cli.render")
        self.patch([cli.ReportDocument], "to_table", "cli.render")
        self.patch([longitude, cli, satellite], "hfl_compute", "longitude.hfl_compute")
        self.patch([longitude, cli], "build_hfl_complex", "longitude.build", self._on_build)
        self.patch([complexes, longitude, cli], "homology", "complexes.homology", self._on_homology)
        self.patch([complexes.GradedComplex], "validate", "complexes.validate")
        self.patch([complexes.GradedComplex], "from_json_dict", "complexes.from_json")
        self.patch([complexes, cli, kauffman], "euler_characteristic", "complexes.euler")
        self.patch([matrices.IntMatrix], "mul", "matrices.mul")
        self.patch([matrices.IntMatrix], "submatrix", "matrices.submatrix")
        self.patch([matrices, complexes], "smith_normal_form", "matrices.snf", self._on_snf)
        self.patch([kauffman.PlanarDiagram], "from_text", "kauffman.parse")
        self.patch([kauffman, cli], "regions", "kauffman.regions")
        self.patch([kauffman, cli], "enumerate_states", "kauffman.enumerate", self._on_enumerate)
        self.patch([kauffman, cli], "torus_states_with_gradings", "kauffman.gradings")
        self.patch([satellite, cli], "whitehead_hfk_one", "satellite.whitehead")
        self.patch([satellite, cli], "satellite_alexander", "satellite.alexander")
        self.patch([laurent.LaurentPoly], "parse", "laurent.parse")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _on_build(self, args, cx) -> None:
        self.generators += len(cx)

    def _on_homology(self, args, table) -> None:
        cx = args[0]
        if cx in self._seen_complexes:
            self.homology_repeats += 1
        self._seen_complexes.add(cx)
        size = len(cx)
        if size:
            nonzero = sum(1 for row in cx.differential.data for x in row if x)
            self.density_sum += nonzero / (size * size)
            self.density_n += 1

    def _on_snf(self, args, snf) -> None:
        a = args[0]
        self.snf_entries += a.rows * a.cols
        if not any(x for row in a.data for x in row):
            self.snf_empty += 1
        for m in (snf.u, snf.d, snf.v):
            for row in m.data:
                for x in row:
                    bits = abs(x).bit_length()
                    if bits > self.max_coeff_bits:
                        self.max_coeff_bits = bits

    def _on_enumerate(self, args, states) -> None:
        self.states += len(states)

    def self_times(self, scales: list[float]) -> tuple[dict[str, float], dict[str, int]]:
        """Total self time (span minus child spans) and span count per name.

        Each span's self time is multiplied by ``scales[its request id]``.
        """
        covered = [0.0] * len(self.start)
        for i in range(len(self.start)):
            p = self.parent[i]
            if p >= 0:
                covered[p] += self.end[i] - self.start[i]
        own = {name: 0.0 for name in self.names}
        count = {name: 0 for name in self.names}
        for i in range(len(self.start)):
            name = self.names[self.name[i]]
            own[name] += (self.end[i] - self.start[i] - covered[i]) * scales[self.request[i]]
            count[name] += 1
        return own, count
