"""Layer spans for one traced selab run, recorded from outside the package.

``Tracer.install`` replaces the public functions of each selab layer with
wrappers that record one span per call (per yield for the ``stream``
generators): function id, start, end and parent span.  Spans live in flat
in-memory arrays and are written out once, by ``save``, after the run.

A layer's self time is the duration of its spans minus the part covered by
their child spans.  The wrappers' own bookkeeping runs outside the span
intervals, so it lands in the self time of the caller's layer; the traced
run's extra wall time is reported separately as ``trace.overhead_s``.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

LAYERS = ("cli", "sources", "rng", "rotation", "ledger", "fields",
          "empirical", "spectral")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _rows(args, kwargs, result) -> int:
    return len(result)


def _grid_points(args, kwargs, result) -> int:
    """Size of the Fourier grid ``return_series`` sweeps: G^d."""
    dist, kmax = _arg(args, kwargs, 0, "dist"), _arg(args, kwargs, 1, "kmax")
    g = 2 * kmax * max(dist.radius(), 1) + 1
    return g ** dist.d


class Tracer:
    def __init__(self):
        self.names: list[tuple[str, str]] = []  # function id -> (layer, name)
        self.work: list[int] = []                # function id -> work units
        self.exhausted: list[int] = []           # function id -> StopIterations
        self.fid = array("h")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.ledgers: list = []          # every LocalTimeLedger built
        self.arrays_ledgers: dict = {}   # id -> ledger given to ledger_arrays

    def _register(self, layer: str, name: str) -> int:
        self.names.append((layer, name))
        self.work.append(0)
        self.exhausted.append(0)
        return len(self.names) - 1

    def _open(self):
        """Bound methods that append one placeholder span and push it."""
        return (self.fid.append, self.parent.append, self.start.append,
                self.end.append, self._stack.append, self._stack.pop)

    def _wrap(self, fn, layer, name, work=None):
        fid = self._register(layer, name)
        fids, starts, ends, stack = self.fid, self.start, self.end, self._stack
        add_fid, add_parent, add_start, add_end, push, pop = self._open()
        totals, ns = self.work, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            i = len(fids)
            add_fid(fid)
            add_parent(stack[-1])
            add_start(0)
            add_end(0)
            push(i)
            t = ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = ns()
                starts[i] = t
                pop()
            if work is not None:
                totals[fid] += work(args, kwargs, result)
            return result

        return functools.wraps(fn)(wrapper)

    def _wrap_gen(self, genfn, layer, name):
        """One span per yielded item, so per-step generation is timed."""
        fid = self._register(layer, name)
        fids, starts, ends, stack = self.fid, self.start, self.end, self._stack
        add_fid, add_parent, add_start, add_end, push, pop = self._open()
        exhausted, ns = self.exhausted, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            step = genfn(*args, **kwargs).__next__
            while True:
                i = len(fids)
                add_fid(fid)
                add_parent(stack[-1])
                add_start(0)
                add_end(0)
                push(i)
                t = ns()
                try:
                    item = step()
                except StopIteration:
                    exhausted[fid] += 1
                    return
                finally:
                    ends[i] = ns()
                    starts[i] = t
                    pop()
                yield item

        return functools.wraps(genfn)(wrapper)

    def _patch(self, owner, attr, layer, work=None, gen=False):
        fn = getattr(owner, attr)
        name = f"{getattr(owner, '__name__', owner)}.{attr}"
        wrapped = (self._wrap_gen(fn, layer, name) if gen
                   else self._wrap(fn, layer, name, work))
        setattr(owner, attr, wrapped)

    def install(self) -> None:
        from selab import (cli, empirical, fields, ledger, rng, rotation,
                           sources, spectral)
        for attr in ("uniform_at", "site_uniforms"):
            self._patch(rng, attr, "rng")
        self._patch(rng, "uniforms", "rng", work=_rows)
        self._patch(rng, "hash_sites", "rng", work=_rows)
        self._patch(sources, "stream", "sources", gen=True)
        self._patch(sources, "generate", "sources", work=_rows)
        self._patch(rotation.RotationCocycle, "stream", "rotation", gen=True)
        self._patch(rotation.RotationCocycle, "generate", "rotation", work=_rows)

        led_cls = ledger.LocalTimeLedger
        self._patch(led_cls, "record", "ledger")
        self._patch(led_cls, "record_many", "ledger")
        from_traj = led_cls.__dict__["from_trajectory"].__func__
        led_cls.from_trajectory = classmethod(
            self._wrap(from_traj, "ledger", "LocalTimeLedger.from_trajectory"))
        self._patch(ledger, "trajectory_stats", "ledger",
                    work=lambda a, k, r: len(r.v))
        init, built = led_cls.__init__, self.ledgers

        def tracked_init(led, d):
            init(led, d)
            built.append(led)
        led_cls.__init__ = tracked_init

        for cls in (fields.UniformField, fields.GaussianField,
                    fields.DiscreteField, fields.MovingAverageField):
            self._patch(cls, "site_values", "fields", work=_rows)

        seen = self.arrays_ledgers

        def count_ledger(args, kwargs, result):
            led = _arg(args, kwargs, 0, "ledger")
            seen[id(led)] = led
            return 0
        self._patch(empirical, "ledger_arrays", "empirical", work=count_ledger)
        for attr in ("sampled_ecdf", "sup_deviation", "bridge_values"):
            self._patch(empirical, attr, "empirical")

        self._patch(spectral, "return_series", "spectral", work=_grid_points)
        self._patch(spectral, "lag_correlation", "spectral")
        self._patch(spectral, "transient_variance_report", "spectral")
        self._patch(cli, "run_plan", "cli")

    # ------------------------------------------------------------------

    def _arrays(self):
        fid = np.frombuffer(self.fid, dtype=np.int16)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        start = np.frombuffer(self.start, dtype=np.int64)
        end = np.frombuffer(self.end, dtype=np.int64)
        return fid, parent, start, end

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts, self times and rates from the recorded spans."""
        fid, parent, start, end = self._arrays()
        fid = fid.astype(np.intp)
        nf = len(self.names)
        layer_of_fid = np.array([LAYERS.index(layer) for layer, _ in self.names])
        dur = (end - start) / 1e9
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                              minlength=fid.size)
        layer = layer_of_fid[fid]
        self_by_layer = np.bincount(layer, weights=dur - covered,
                                    minlength=len(LAYERS))
        parent_layer = np.where(has_parent, layer[np.maximum(parent, 0)], -1)
        outer = parent_layer != layer
        incl_by_layer = np.bincount(layer[outer], weights=dur[outer],
                                    minlength=len(LAYERS))
        calls = np.bincount(fid, minlength=nf)
        incl_by_fid = np.bincount(fid, weights=dur, minlength=nf)
        parent_fid = np.where(has_parent, fid[np.maximum(parent, 0)], -1)

        ids = {name: i for i, (_, name) in enumerate(self.names)}

        def n_calls(name):
            return int(calls[ids[name]])

        def units(name):
            return self.work[ids[name]]

        def self_s(lay):
            return float(self_by_layer[LAYERS.index(lay)])

        def incl_s(lay):
            return float(incl_by_layer[LAYERS.index(lay)])

        def rate(count, seconds):
            return count / seconds if seconds > 0 else 0.0

        src_steps = (n_calls("selab.sources.stream")
                     - self.exhausted[ids["selab.sources.stream"]]
                     + units("selab.sources.generate"))
        rot_stream = "RotationCocycle.stream"
        rot_steps = (n_calls(rot_stream) - self.exhausted[ids[rot_stream]]
                     + units("RotationCocycle.generate"))
        ledger_fids = [i for i, (lay, _) in enumerate(self.names)
                       if lay == "ledger"]
        outer_ledger_calls = int(np.count_nonzero(
            outer & np.isin(fid, ledger_fids)))
        ledger_steps = (n_calls("LocalTimeLedger.record")
                        + units("selab.ledger.trajectory_stats"))
        rng_words = (n_calls("selab.rng.uniform_at")
                     + units("selab.rng.uniforms")
                     + units("selab.rng.hash_sites"))
        field_sites = sum(self.work[i] for i, (lay, _) in enumerate(self.names)
                          if lay == "fields")
        arrays_calls = n_calls("selab.empirical.ledger_arrays")
        tvr, rs = (ids["selab.spectral.transient_variance_report"],
                   ids["selab.spectral.return_series"])
        rs_in_tvr = float(dur[(fid == rs) & (parent_fid == tvr)].sum())

        return {
            "sources.steps": src_steps,
            "sources.self_s": self_s("sources"),
            "sources.steps_per_s": rate(src_steps, incl_s("sources")),
            "ledger.steps": ledger_steps,
            "ledger.calls_per_step": (outer_ledger_calls / ledger_steps
                                      if ledger_steps else 0.0),
            "ledger.self_s": self_s("ledger"),
            "ledger.distinct_sites": max((len(led.counts) for led in self.ledgers),
                                         default=0),
            "rng.words": rng_words,
            "rng.ns_per_word": (1e9 * incl_s("rng") / rng_words
                                if rng_words else 0.0),
            "rotation.steps": rot_steps,
            "rotation.self_s": self_s("rotation"),
            "rotation.steps_per_s": rate(rot_steps, incl_s("rotation")),
            "empirical.ledger_arrays.calls": arrays_calls,
            "empirical.rebuilds_per_ledger": (
                arrays_calls / len(self.arrays_ledgers)
                if self.arrays_ledgers else 0.0),
            "empirical.self_s": self_s("empirical"),
            "fields.sites": field_sites,
            "fields.sites_per_s": rate(field_sites, incl_s("fields")),
            "spectral.return_series_s": float(incl_by_fid[rs]),
            "spectral.grid_points": units("selab.spectral.return_series"),
            "spectral.mc_s": float(incl_by_fid[tvr]) - rs_in_tvr,
            "cli.self_s": self_s("cli"),
        }

    def save(self, path) -> None:
        fid, parent, start, end = self._arrays()
        np.savez(path, fid=fid, parent=parent, start_ns=start, end_ns=end,
                 names=np.array([f"{lay}:{name}" for lay, name in self.names]))
