"""In-memory spans around the public functions of each advfield layer.

The benchmark always times its own stages with :meth:`Tracer.stage`. When
tracing is on, :func:`installed` also wraps the public functions listed in
``WRAPPED`` at every call site: in the module that defines them, in every
advfield module that imported them by name, and on their classes for methods.

A span is recorded only where a call crosses a layer boundary. A wrapped call
made while a span of the same layer is open (``iou_3d`` sampling through
``box_contains_many``, ``train_seg`` running its own forward passes) is
counted on that span as an inner call and its time stays in the span. Hooks
that derive counters from a call's arguments and results run inside the
intervals of every span still open; each of those spans records the hook
time, and every reported time, inclusive or self, leaves it out.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

_clock = time.perf_counter


class Span:
    __slots__ = ("name", "layer", "parent", "start", "end", "meta", "inner",
                 "hook_s", "error", "scale")

    def __init__(self, name, layer, parent):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.start = self.end = 0.0
        self.meta = {}
        self.inner = {}
        self.hook_s = 0.0
        self.error = None
        # reference speed / machine speed while a stage ran (stages only)
        self.scale = 1.0

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def duration(self) -> float:
        """Wall time less the counter hooks that ran inside the span."""
        return self.end - self.start - self.hook_s


class SpeedProbe:
    """Measures how fast the machine runs right now, on a fixed kernel.

    The kernel mixes what the pipeline spends its time on: small dense
    matrix products, a sort of integer voxel keys and a Python dict loop. It
    reads about ``REF_S`` seconds on the reference machine (2 cores, numpy
    2.4.6 on one OpenBLAS thread); calling the probe returns its wall time.
    """

    REF_S = 0.11

    def __init__(self):
        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((6000, 16))
        self.w1 = rng.standard_normal((16, 64))
        self.w2 = rng.standard_normal((64, 8))

    def __call__(self) -> float:
        start = _clock()
        for _ in range(10):
            hidden = np.maximum(self.x @ self.w1, 0.0)
            float((hidden @ self.w2).sum())
            np.unique(np.floor(self.x[:, :3] * 2.0).astype(np.int64), axis=0)
        counts = {}
        for i in range(20000):
            counts[i % 977] = counts.get(i % 977, 0) + i
        return _clock() - start


class Tracer:
    """Span recorder for one process; spans stay in memory until written out.

    With a ``speed`` probe, each stage is bracketed by probe readings taken
    outside its interval, and :meth:`stage_seconds` scales the stage's wall
    time to the reference speed. The shared machine's speed drifts by 10-20%
    over tens of seconds; the scaled times leave most of that drift out.
    """

    def __init__(self, speed: SpeedProbe | None = None):
        self.speed = speed
        # probe reading at the end of the previous stage
        self.last_probe_s = None
        self.spans = []
        self.stack = []
        self.counters = defaultdict(float)
        self.plan_keys = set()
        # unwrapped functions by (module, attribute), while installed
        self.originals = {}

    @contextlib.contextmanager
    def stage(self, name: str):
        """Top-level benchmark stage; wrapped calls inside become its children."""
        if self.speed is not None and self.last_probe_s is None:
            self.last_probe_s = self.speed()
        span = Span(name, "bench", self.stack[-1] if self.stack else None)
        self.stack.append(span)
        self.plan_keys = set()
        span.start = _clock()
        try:
            yield span
        finally:
            span.end = _clock()
            self.stack.pop()
            self.spans.append(span)
            if self.speed is not None:
                before, self.last_probe_s = self.last_probe_s, self.speed()
                span.scale = self.speed.REF_S / (0.5 * (before + self.last_probe_s))

    def stage_seconds(self) -> dict:
        """Wall time per stage at the reference speed, hooks included."""
        totals = defaultdict(float)
        for span in self.spans:
            if span.layer == "bench":
                totals[span.name] += span.wall * span.scale
        return dict(totals)


# ---------------------------------------------------------------------------
# self time
# ---------------------------------------------------------------------------

def scaled_duration(span) -> float:
    """The span's duration at the reference speed of its stage."""
    return span.duration * stage_of(span).scale


def self_times(spans) -> dict:
    """Per span: its duration minus the durations of its child spans.

    One thread opens and closes spans as a stack, so the children of a span
    never overlap, and hook time is already out of every duration. Times are
    at the reference speed, like the stage times.
    """
    own = {id(s): scaled_duration(s) for s in spans}
    for span in spans:
        if span.parent is not None and id(span.parent) in own:
            own[id(span.parent)] -= scaled_duration(span)
    return own


def stage_of(span):
    while span.parent is not None:
        span = span.parent
    return span


# ---------------------------------------------------------------------------
# counters derived from arguments and results
# ---------------------------------------------------------------------------

def _voxel_ids(xyz, cell):
    cells = np.floor(np.asarray(xyz) / cell).astype(np.int64)
    _, ids = np.unique(cells, axis=0, return_inverse=True)
    return ids.reshape(-1)


def _nearest_open(ctx, names):
    span = ctx.parent
    while span is not None and span.name not in names:
        span = span.parent
    return span


_ATTACKERS = ("attack.fit_bank", "baselines.iterative_gradient_l2",
              "baselines.chamfer_attack")


def _seg_forward(ctx, args, kwargs, result, state):
    model, cloud = args[0], args[1]
    rows = kwargs.get("rows", args[2] if len(args) > 2 else None)
    attacker = _nearest_open(ctx, _ATTACKERS)
    if attacker is None:
        return
    n_rows = cloud.n if rows is None else len(rows)
    c = ctx.tracer.counters
    c["victim.seg.forward.rows"] += n_rows
    targets = attacker.meta.pop("pending", None)
    if targets is None:
        targets = attacker.meta.get("targets")
    if targets is None or len(targets) == 0 or cloud.n == 0:
        return
    ids = _voxel_ids(cloud.xyz, model.radius)
    useful = np.isin(ids, ids[np.asarray(targets)])
    c["attack_useful_rows"] += int(np.count_nonzero(useful if rows is None
                                                    else useful[rows]))


def _det_forward(ctx, args, kwargs, result, state):
    attacker = _nearest_open(ctx, _ATTACKERS)
    if attacker is not None:
        attacker.meta.pop("pending", None)


def _cloud_key(cloud) -> bytes:
    return hashlib.blake2b(np.ascontiguousarray(cloud.xyz).tobytes(),
                           digest_size=16).digest()


def _plan(ctx, args, kwargs, result, state):
    cloud, box, fld = args[0], args[1], args[2]
    k = kwargs.get("k", args[4] if len(args) > 4 else None)
    c = ctx.tracer.counters
    c["field.plan_deformation.points"] += result.n_affected
    c["field.plan_deformation.distance_entries"] += result.n_affected * fld.size
    key = (_cloud_key(cloud), tuple(box.center.tolist()), box.width, box.height,
           box.length, box.yaw, k)
    if key in ctx.tracer.plan_keys:
        c["field.plan_deformation.repeats"] += 1
    ctx.tracer.plan_keys.add(key)


def _deform(ctx, args, kwargs, result, state):
    attacker = _nearest_open(ctx, ("attack.fit_bank",))
    if attacker is not None:
        idx = np.asarray(args[1].point_idx)
        pending = attacker.meta.get("pending")
        attacker.meta["pending"] = idx if pending is None else np.union1d(pending, idx)


def _fit_bank_before(ctx, args, kwargs):
    return [f.vectors.copy() for f in args[0].fields]


def _fit_bank(ctx, args, kwargs, result, state):
    bank, trace = result
    cfg = args[3]
    c = ctx.tracer.counters
    c["attack.iterations"] += cfg.iterations
    c["attack.unused_slots"] += sum(np.array_equal(f.vectors, v0)
                                    for f, v0 in zip(bank.fields, state))
    vectors = np.concatenate([f.vectors for f in bank.fields])
    at_clamp = (np.count_nonzero(np.abs(vectors[:, :3]) == cfg.eps)
                + np.count_nonzero(np.abs(vectors[:, 3]) == cfg.psi))
    c["field.clamped"] += at_clamp
    c["field.components"] += vectors.size
    if trace.losses:
        c["attack.loss_first"] = trace.losses[0]
        c["attack.loss_last"] = trace.losses[-1]


def _baseline_before(ctx, args, kwargs):
    if ctx.span is None:
        return
    cloud, box = args[0], args[1]
    contains = ctx.tracer.originals[("advfield.geometry", "box_contains_many")]
    ctx.span.meta["targets"] = np.flatnonzero(contains(box, cloud.xyz))


def _chamfer(ctx, args, kwargs, result, state):
    ctx.tracer.counters["baselines.chamfer_distance.pairs"] += len(args[0]) * len(args[1])


def _iou(ctx, args, kwargs, result, state):
    c = ctx.tracer.counters
    c["geometry.iou_3d.overlapping"] += result > 0.0
    if ctx.span is not None and ctx.span.inner.get("geometry.box_contains_many"):
        c["geometry.iou_3d.sampled"] += 1


def _augment_before(ctx, args, kwargs):
    from advfield import evaluate
    return evaluate.augment_scene.skipped


def _augment(ctx, args, kwargs, result, state):
    from advfield import evaluate
    ctx.tracer.counters["evaluate.augment_scene.skipped"] += (
        evaluate.augment_scene.skipped - state)


def _generate(ctx, args, kwargs, result, state):
    original = ctx.tracer.originals[("advfield.simulator", "generate_scene")]
    signature = inspect.signature(original)
    bound = signature.bind(*args, **kwargs)
    bound.apply_defaults()
    c = ctx.tracer.counters
    c["simulator.rays"] += len(bound.arguments["sensor"].ray_directions())
    c["simulator.points"] += result.cloud.n


def _file_bytes(counter):
    """Hook for writers called as ``fn(obj, path)``: adds the file size."""
    def hook(ctx, args, kwargs, result, state):
        ctx.tracer.counters[counter] += os.path.getsize(args[1])
    return hook


# (module, attribute, span name, hook after the call, hook before the call);
# what the hook before returns is handed to the hook after as ``state``
WRAPPED = [
    ("advfield.victim", "SegNetMini.forward", "victim.seg.forward", _seg_forward, None),
    ("advfield.victim", "SegNetMini.backward_inputs", "victim.seg.backward_inputs",
     None, None),
    ("advfield.victim", "DetHeadMini.forward", "victim.det.forward", _det_forward, None),
    ("advfield.victim", "DetHeadMini.backward_inputs", "victim.det.backward_inputs",
     None, None),
    ("advfield.victim", "train_seg", "victim.train_seg", None, None),
    ("advfield.victim", "train_det", "victim.train_det", None, None),
    ("advfield.victim", "save_checkpoint", "victim.checkpoint.save", None, None),
    ("advfield.victim", "load_checkpoint", "victim.checkpoint.load", None, None),
    ("advfield.field", "plan_deformation", "field.plan_deformation", _plan, None),
    ("advfield.field", "deform", "field.deform", _deform, None),
    ("advfield.field", "ShiftJacobian.vector_gradient", "field.vector_gradient",
     None, None),
    ("advfield.field", "ShiftJacobian.tau_clip_active", "field.tau_clip_active",
     None, None),
    ("advfield.geometry", "iou_3d", "geometry.iou_3d", _iou, None),
    ("advfield.geometry", "box_contains_many", "geometry.box_contains_many", None, None),
    ("advfield.attack", "fit_bank", "attack.fit_bank", _fit_bank, _fit_bank_before),
    ("advfield.evaluate", "train_augmented", "evaluate.train_augmented", None, None),
    ("advfield.evaluate", "augment_scene", "evaluate.augment_scene", _augment,
     _augment_before),
    ("advfield.evaluate", "miou_over_scenes", "evaluate.miou_over_scenes", None, None),
    ("advfield.evaluate", "collect_detections", "evaluate.collect_detections",
     None, None),
    ("advfield.evaluate", "deform_all_objects", "evaluate.deform_all_objects",
     None, None),
    ("advfield.evaluate", "average_precision", "evaluate.average_precision", None, None),
    ("advfield.evaluate", "attack_success_rate", "evaluate.attack_success_rate",
     None, None),
    ("advfield.baselines", "iterative_gradient_l2", "baselines.iterative_gradient_l2",
     None, _baseline_before),
    ("advfield.baselines", "chamfer_attack", "baselines.chamfer_attack",
     None, _baseline_before),
    ("advfield.baselines", "chamfer_distance", "baselines.chamfer_distance",
     _chamfer, None),
    ("advfield.simulator", "generate_scene", "simulator.generate_scene", _generate, None),
    ("advfield.simulator", "write_scene", "simulator.write_scene", None, None),
    ("advfield.cloudio", "save_bank", "cloudio.save_bank",
     _file_bytes("cloudio.save_bank.bytes"), None),
    ("advfield.cloudio", "load_bank", "cloudio.load_bank", None, None),
    ("advfield.cloudio", "write_cloud", "cloudio.write_cloud",
     _file_bytes("cloudio.write_cloud.bytes"), None),
    ("advfield.cloudio", "read_labeled_cloud", "cloudio.read_labeled_cloud", None, None),
]


class _Call:
    __slots__ = ("tracer", "span", "parent")

    def __init__(self, tracer, span, parent):
        self.tracer, self.span, self.parent = tracer, span, parent


def _charge_hook(stack, seconds):
    # the call's own span is closed (or not yet open); every span on the
    # stack, up to the stage, ran the hook inside its interval
    for span in stack:
        span.hook_s += seconds


def _wrap(tracer, original, name, after, before):
    layer = name.split(".", 1)[0]

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        stack = tracer.stack
        parent = stack[-1] if stack else None
        # a call from inside an open span of the same layer is an
        # implementation detail of that span: counted on it, no span
        span = None if parent is not None and parent.layer == layer \
            else Span(name, layer, parent)
        ctx = _Call(tracer, span, parent)
        state = None
        if before is not None:
            t0 = _clock()
            state = before(ctx, args, kwargs)
            _charge_hook(stack, _clock() - t0)
        if span is None:
            parent.inner[name] = parent.inner.get(name, 0) + 1
            result = original(*args, **kwargs)
        else:
            stack.append(span)
            span.start = _clock()
            try:
                result = original(*args, **kwargs)
            except BaseException as err:
                span.error = f"{type(err).__name__}: {err}"
                raise
            finally:
                span.end = _clock()
                stack.pop()
                tracer.spans.append(span)
        if after is not None:
            t0 = _clock()
            after(ctx, args, kwargs, result, state)
            _charge_hook(stack, _clock() - t0)
        return result

    return wrapper


def _advfield_modules():
    return [m for n, m in sorted(sys.modules.items())
            if (n == "advfield" or n.startswith("advfield.")) and m is not None]


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Wrap every call site of the functions in ``WRAPPED`` for the block."""
    for mod_name, _, _, _, _ in WRAPPED:
        importlib.import_module(mod_name)
    modules = _advfield_modules()
    undo = []
    try:
        for mod_name, attr, name, after, before in WRAPPED:
            module = importlib.import_module(mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                original = owner.__dict__[meth]
                tracer.originals[(mod_name, attr)] = original
                setattr(owner, meth, _wrap(tracer, original, name, after, before))
                undo.append((owner, meth, original, None))
                continue
            original = getattr(module, attr)
            tracer.originals[(mod_name, attr)] = original
            wrapper = _wrap(tracer, original, name, after, before)
            for site in modules:
                for key, value in list(vars(site).items()):
                    if value is original:
                        setattr(site, key, wrapper)
                        undo.append((site, key, original, wrapper))
        yield tracer
    finally:
        for owner, key, original, wrapper in reversed(undo):
            if wrapper is not None:
                # function attributes (augment_scene.skipped) live on the
                # wrapper while it is installed; hand them back
                original.__dict__.update(wrapper.__dict__)
                original.__dict__.pop("__wrapped__", None)
            setattr(owner, key, original)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

# traced run_s minus untraced run_s: the runner measures it, not the spans
OVERHEAD = "trace.overhead_s"

# metrics reported as self time rather than inclusive span time
_SELF = {"attack.fit_bank.s", "evaluate.train_augmented.s"}


def _ratio(num, den) -> float:
    return float(num) / float(den) if den else 0.0


def layer_metrics(spans, counters, names) -> dict:
    """The per-layer metrics in ``names`` as name -> value.

    ``<span>.s`` is the span's total time (self time for the names in
    ``_SELF``) and ``<span>.calls`` its span count; a span never opened gives
    0. Every other name must be one of the counters derived below.
    """
    selfs = self_times(spans)
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    for span in spans:
        total[span.name] += scaled_duration(span)
        own[span.name] += selfs[id(span)]
        calls[span.name] += 1
    c = defaultdict(float, counters)
    steps = sum(1 for span in spans
                if span.name in ("victim.seg.forward", "victim.det.forward")
                and span.parent is not None and span.parent.name == "attack.fit_bank")
    derived = {
        "victim.seg.forward.rows": c["victim.seg.forward.rows"],
        "victim.seg.useful_row_share": _ratio(c["attack_useful_rows"],
                                              c["victim.seg.forward.rows"]),
        "victim.train_seg.scene_steps": sum(
            s.inner.get("victim.seg.forward", 0) for s in spans
            if s.name == "victim.train_seg"),
        "field.plan_deformation.points": c["field.plan_deformation.points"],
        "field.plan_deformation.distance_entries":
            c["field.plan_deformation.distance_entries"],
        "field.plan_deformation.repeat_share": _ratio(
            c["field.plan_deformation.repeats"], calls["field.plan_deformation"]),
        "field.clamp_share": _ratio(c["field.clamped"], c["field.components"]),
        "geometry.iou_3d.mc_share": _ratio(c["geometry.iou_3d.sampled"],
                                           calls["geometry.iou_3d"]),
        "geometry.iou_3d.overlap_share": _ratio(c["geometry.iou_3d.overlapping"],
                                                calls["geometry.iou_3d"]),
        "attack.fit_bank.s_per_iteration": _ratio(total["attack.fit_bank"],
                                                  c["attack.iterations"]),
        "attack.scene_steps": steps,
        "attack.unused_slots": c["attack.unused_slots"],
        "attack.loss_first": c["attack.loss_first"],
        "attack.loss_last": c["attack.loss_last"],
        "evaluate.augment_scene.skipped": c["evaluate.augment_scene.skipped"],
        "baselines.chamfer_distance.pairs": c["baselines.chamfer_distance.pairs"],
        "simulator.rays": c["simulator.rays"],
        "simulator.points": c["simulator.points"],
        "simulator.hit_share": _ratio(c["simulator.points"], c["simulator.rays"]),
        "cloudio.save_bank.bytes": c["cloudio.save_bank.bytes"],
        "cloudio.write_cloud.bytes": c["cloudio.write_cloud.bytes"],
    }
    out = {}
    for name in names:
        if name == OVERHEAD:
            continue
        if name in derived:
            out[name] = derived[name]
        elif name.endswith(".s"):
            base = name[:-2]
            out[name] = own[base] if name in _SELF else total[base]
        elif name.endswith(".calls"):
            out[name] = calls[name[:-6]]
        else:
            raise KeyError(f"no per-layer metric named {name!r}")
    return out


def self_time_table(spans) -> list:
    """Rows of (stage, span name, calls, self seconds, share of the stage)."""
    selfs = self_times(spans)
    per = defaultdict(lambda: [0, 0.0])
    stage_s = {}
    for span in spans:
        stage = stage_of(span)
        if span is stage:
            stage_s[stage.name] = stage_s.get(stage.name, 0.0) + scaled_duration(span)
        row = per[(stage.name, span.name)]
        row[0] += 1
        row[1] += selfs[id(span)]
    rows = [(stage, name, n, s, _ratio(s, stage_s.get(stage, 0.0)))
            for (stage, name), (n, s) in per.items()]
    return sorted(rows, key=lambda r: (r[0], -r[3]))


def span_records(spans) -> list:
    """Spans as JSON-ready dicts; a span's stage is the request it served."""
    index = {id(s): i for i, s in enumerate(spans)}
    return [{"stage": stage_of(s).name, "name": s.name, "start": s.start, "end": s.end,
             "parent": index.get(id(s.parent)), "inner": s.inner or None,
             "error": s.error} for s in spans]
