"""Self-tests of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/tests
"""

import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from advfield import attack, evaluate, geometry  # noqa: E402

SPEC = run.load_spec()
LAYER_NAMES = [m["name"] for m in SPEC["per_layer"]]

TINY = {
    "seg-augment": W.SegAugment(W.SegSize(
        splits=(4, 2, 2, 2), victim_epochs=1, groups=4, variants=1, step=0.4,
        attack_iters=1, retrain_epochs=1, baseline_boxes=1, baseline_iters=1)),
    "det-attack": W.DetAttack(W.DeskSize(
        splits=(4, 2, 2, 2), victim_epochs=1, groups=4, variants=1, step=0.4,
        attack_iters=1)),
    "dataset-io": W.DatasetIo(W.IoSize(splits=(1, 1, 1, 1), groups=2, variants=1,
                                       step=0.4)),
}


@pytest.fixture(scope="module", params=sorted(TINY))
def runs(request, tmp_path_factory):
    workload = TINY[request.param]
    work = tmp_path_factory.mktemp(request.param)
    plain = run.measure(workload, seed=3, seconds=0, trace=False, min_reps=1,
                        setup_repeats=1, warmup_s=0.0, workdir=work / "plain")
    traced = run.measure(workload, seed=3, seconds=0, trace=True, layer_names=LAYER_NAMES,
                         warmup_s=0.0, workdir=work / "traced")
    return request.param, plain, traced


def test_checks_pass_and_only_the_scene_round_trip_fails(runs):
    name, plain, traced = runs
    for result in (plain, traced):
        assert result["ok"] and result["correct"]
        assert result["attempted"] > result["failed"]
        # every failure is the CLI's on-disk scene round trip, read on dataset-io
        assert all(f.startswith("load_split ") for f in result["failures"])
        if name != "dataset-io":
            assert result["failed"] == 0


EMITTED = {}


def test_every_metric_is_emitted(runs):
    name, plain, traced = runs
    # every workload reports every end-to-end metric, and none is ever 0
    assert list(plain["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric, value in plain["metrics"].items():
        assert np.isfinite(value) and value > 0, metric
    assert set(traced["per_layer"]) == set(LAYER_NAMES)
    layer = traced["per_layer"]
    for stage, seconds in traced["stages"].items():
        assert layer[f"{run.STAGE}{stage}.s"] == seconds > 0
    for metric, value in traced["quality"].items():
        # a one-epoch victim may find no car at all
        assert layer[f"{run.QUALITY}{metric}"] == value and 0.0 <= value <= 1.0
    EMITTED[name] = ({f"{run.STAGE}{k}.s" for k in traced["stages"]}
                     | {f"{run.QUALITY}{k}" for k in traced["quality"]})
    if len(EMITTED) == len(TINY):
        # each stage and quality metric comes from some workload, and only those
        assert set().union(*EMITTED.values()) == {
            n for n in LAYER_NAMES if n.startswith((run.STAGE, run.QUALITY))}


def test_traced_run_separates_layers(runs):
    name, plain, traced = runs
    layer = traced["per_layer"]
    names = {span.name for span in traced["spans"]}
    # every span belongs to the set-up or to a timed stage
    assert {tracing.stage_of(span).layer for span in traced["spans"]} == {"bench"}
    if name == "det-attack":
        assert layer["geometry.iou_3d.calls"] > 0
        assert layer["victim.seg.forward.rows"] == 0
        assert "victim.seg.forward" not in names
    if name == "seg-augment":
        assert layer["geometry.iou_3d.calls"] == 0
        assert layer["victim.seg.forward.rows"] > 0
        assert 0.0 < layer["victim.seg.useful_row_share"] < 1.0
    if name == "dataset-io":
        # checkpoints are written and read; no model, field or attack code runs
        assert not [n for n in names if n.startswith(("field.", "attack."))
                    or n.startswith("victim.") and not n.startswith("victim.checkpoint.")]
        assert layer["simulator.generate_scene.calls"] == 4
        assert layer["cloudio.save_bank.bytes"] > 0
    assert traced["digest"] == plain["digest"]


def test_wrappers_are_removed_after_the_traced_run(runs):
    assert attack.iou_3d is geometry.iou_3d
    assert evaluate.iou_3d is geometry.iou_3d
    assert not hasattr(attack.fit_bank, "__wrapped__")
    assert isinstance(evaluate.augment_scene.skipped, int)


def test_wrappers_cover_imported_names():
    tracer = tracing.Tracer()
    original = geometry.iou_3d
    with tracing.installed(tracer):
        assert attack.iou_3d is evaluate.iou_3d is geometry.iou_3d
        assert attack.iou_3d is not original
        box = geometry.OrientedBox(np.zeros(3), 1.0, 1.0, 2.0, 0.0)
        other = geometry.OrientedBox(np.array([0.3, 0.0, 0.0]), 1.0, 1.0, 2.0, 0.4)
        with tracer.stage("probe"):
            attack.iou_3d(box, other)
    names = [s.name for s in tracer.spans]
    assert names.count("geometry.iou_3d") == 1
    # the sampled path runs box_contains_many inside geometry: no span of its own
    assert "geometry.box_contains_many" not in names
    assert tracer.counters["geometry.iou_3d.sampled"] == 1
    assert attack.iou_3d is original


def test_checks_catch_bad_outputs():
    ops = W.Ops()
    rng = np.random.default_rng(0)
    from advfield.cloudio import PointCloud
    clean = PointCloud(rng.uniform(5, 10, (50, 3)), rng.uniform(0, 1, 50),
                       np.ones(50), np.zeros(50))
    off_ray = clean.copy()
    off_ray.xyz[3] += np.array([0.0, 0.0, 0.05])
    W.check_along_rays(ops, "off-ray", [(clean, off_ray)], np.zeros(3))
    assert ops.checks_failed == 1
    bright = clean.copy()
    bright.intensity[0] = 1.5
    W.check_intensity(ops, "bright", [bright])
    assert ops.checks_failed == 2
    assert ops.failed == 2 and ops.attempted == 5


def test_stage_failure_is_counted():
    ops = W.Ops()

    def broken():
        raise ValueError("boom")

    with pytest.raises(W.StageFailure):
        ops.call(broken)
    assert (ops.attempted, ops.failed) == (1, 1)
    assert "boom" in ops.failures[0]


def test_benchmark_json_names_the_workloads():
    assert {w["name"] for w in SPEC["workloads"]} == set(W.WORKLOADS)


def test_hook_time_is_left_out_of_every_open_span():
    tracer = tracing.Tracer()
    # an iou_3d hook that sleeps stands in for an expensive counter
    slow = ("advfield.geometry", "iou_3d", "geometry.iou_3d",
            lambda *a: time.sleep(0.05), None)
    box = geometry.OrientedBox(np.zeros(3), 1.0, 1.0, 2.0, 0.0)
    real = tracing.WRAPPED
    tracing.WRAPPED = [slow]
    try:
        with tracing.installed(tracer), tracer.stage("probe"):
            for _ in range(3):
                evaluate.iou_3d(box, box)
    finally:
        tracing.WRAPPED = real
    stage = next(s for s in tracer.spans if s.name == "probe")
    assert stage.wall >= 0.15
    assert stage.duration < 0.05
    selfs = tracing.self_times(tracer.spans)
    assert 0.0 <= selfs[id(stage)] < 0.05


def test_stage_times_are_scaled_to_the_reference_speed():
    class HalfSpeed:
        # the machine runs the probe in twice the reference time
        REF_S = 0.01

        def __call__(self):
            return 0.02

    tracer = tracing.Tracer(HalfSpeed())
    with tracer.stage("probe"):
        time.sleep(0.05)
    stage = tracer.spans[0]
    assert stage.scale == 0.5
    assert tracer.stage_seconds()["probe"] == stage.wall * 0.5
    assert tracing.self_times(tracer.spans)[id(stage)] == stage.duration * 0.5

