"""The three benchmark workloads: set-up, timed stages and output checks.

Each workload calls the library functions that the ``cmd_*`` bodies of
``advfield.cli`` call, on inputs generated from the workload seed alone.
``setup`` builds what the timed stages consume, ``run`` executes one
repetition of the timed stages inside ``tracer.stage`` blocks, and ``check``
and ``digest`` verify and fingerprint that repetition's outputs outside any
timed stage and outside tracing. Every library
call made through ``Ops.call`` and every check counts as one operation.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from advfield import attack, baselines, cloudio, evaluate, field, simulator, victim

CAR = simulator.CAR
N_CLASSES = len(simulator.CLASS_NAMES)
CAR_DIMS = (1.8, 1.6, 4.6)

# the desk sensor of the test suite: 20 channels, 0.7 degree azimuth steps
DESK_SENSOR = simulator.SensorSpec(
    channels=20,
    elevation_min=math.radians(-15.0),
    elevation_max=math.radians(4.0),
    azimuth_resolution=math.radians(0.7),
)

# the desk workloads share one fixed scene pool; their seed sets everything
# else (victim init, training order, bank init, augmentation draws)
DESK_SCENE_BASE = 0
# augmented retraining deforms one random car per scene and epoch, and the
# cost of planning a car grows with its point count; a fixed training seed
# keeps those draws, and so the stage's work, the same for every workload seed
RETRAIN_SEED = 0
# dataset-io draws its scenes from the seed; distinct seeds give disjoint
# scene ranges (make_splits adds 0..n to the base)
SEED_STRIDE = 1000


class StageFailure(RuntimeError):
    """A library call inside a timed stage raised; the run cannot be timed."""


class Ops:
    """Operations attempted and failed: library calls and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks_failed = 0
        self.failures = []

    def call(self, fn, *args, **kwargs):
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as err:
            self.failed += 1
            self.failures.append(f"{fn.__name__}: {type(err).__name__}: {err}")
            raise StageFailure(self.failures[-1]) from err

    def attempt(self, label, fn, *args, **kwargs) -> bool:
        """A checked operation outside the timed stages; a raise is a failure."""
        self.attempted += 1
        try:
            fn(*args, **kwargs)
        except Exception as err:
            self.failed += 1
            self.failures.append(f"{label}: {type(err).__name__}: {err}")
            return False
        return True

    def check(self, label, ok, detail="") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.checks_failed += 1
            self.failures.append(f"check {label} failed{': ' + detail if detail else ''}")
        return bool(ok)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def check_intensity(ops, label, clouds) -> None:
    lo = min((float(c.intensity.min()) for c in clouds if c.n), default=0.0)
    hi = max((float(c.intensity.max()) for c in clouds if c.n), default=0.0)
    ops.check(f"{label} intensities in [0, 1]", 0.0 <= lo and hi <= 1.0,
              f"range [{lo!r}, {hi!r}]")


def check_along_rays(ops, label, pairs, origin, tol=1e-9) -> None:
    """Deformed points stay on their sensor rays; labels and counts unchanged."""
    worst, counts_ok, labels_ok = 0.0, True, True
    for clean, deformed in pairs:
        counts_ok &= clean.n == deformed.n
        if clean.n != deformed.n:
            continue
        labels_ok &= (_same_bits(clean.semantic, deformed.semantic)
                      and _same_bits(clean.instance, deformed.instance))
        rays = clean.xyz - origin
        rays /= np.linalg.norm(rays, axis=1, keepdims=True)
        shift = deformed.xyz - clean.xyz
        across = shift - np.einsum("ij,ij->i", shift, rays)[:, None] * rays
        if len(across):
            worst = max(worst, float(np.abs(across).max()))
    ops.check(f"{label} point counts unchanged", counts_ok)
    ops.check(f"{label} labels unchanged", labels_ok)
    ops.check(f"{label} points move only along their rays", worst <= tol,
              f"largest off-ray shift {worst!r} m")
    check_intensity(ops, label, [d for _, d in pairs])


def check_bank(ops, label, bank, cfg, trace) -> None:
    vectors = np.concatenate([f.vectors for f in bank.fields])
    ops.check(f"{label} spatial components within +-eps",
              bool(np.all(np.abs(vectors[:, :3]) <= cfg.eps)))
    ops.check(f"{label} intensity components within +-psi",
              bool(np.all(np.abs(vectors[:, 3]) <= cfg.psi)))
    ops.check(f"{label} losses finite",
              len(trace.losses) == cfg.iterations and all(map(math.isfinite, trace.losses)),
              repr(trace.losses))


def check_bank_round_trip(ops, label, bank, loaded) -> None:
    same = (bank.class_id == loaded.class_id and bank.class_name == loaded.class_name
            and bank.groups == loaded.groups and bank.variants == loaded.variants
            and _same_bits(bank.eps, loaded.eps) and _same_bits(bank.psi, loaded.psi)
            and len(bank.fields) == len(loaded.fields))
    same = same and all(
        a.group == b.group and a.variant == b.variant and a.dims == b.dims
        and _same_bits(a.step, b.step) and _same_bits(a.roots, b.roots)
        and _same_bits(a.vectors, b.vectors)
        for a, b in zip(bank.fields, loaded.fields))
    ops.check(f"{label} bank save/load bit-exact", same)


def check_checkpoint_round_trip(ops, label, model, loaded) -> None:
    meta, params = model.state()
    meta2, params2 = loaded.state()
    same = ({k: str(v) for k, v in meta.items()} == {k: str(v) for k, v in meta2.items()}
            and params.keys() == params2.keys()
            and all(_same_bits(params[k], params2[k]) for k in params))
    ops.check(f"{label} checkpoint save/load bit-exact", same)


def check_pairing(ops, splits) -> None:
    """Non-car points of paired val/rare/damaged scenes are bit-identical."""
    ok = True
    for i, clean in enumerate(splits["val"]):
        base = clean.cloud
        keep = base.semantic != CAR
        for name in ("ood-rare", "ood-damaged"):
            if i >= len(splits[name]):
                continue
            other = splits[name][i].cloud
            mask = other.semantic != CAR
            ok &= (_same_bits(base.xyz[keep], other.xyz[mask])
                   and _same_bits(base.intensity[keep], other.intensity[mask])
                   and _same_bits(base.instance[keep], other.instance[mask]))
    ops.check("paired scenes share bit-identical non-car points", ok)


def check_splits(ops, splits) -> None:
    check_pairing(ops, splits)
    check_intensity(ops, "simulated scenes",
                    [s.cloud for scenes in splits.values() for s in scenes])


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(str(part.dtype).encode() + str(part.shape).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()[:16]


def bank_arrays(bank):
    return [a for f in bank.fields for a in (f.roots, f.vectors)]


def model_arrays(model):
    _, params = model.state()
    return [np.asarray(params[k]) for k in sorted(params)]


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------

# values every workload uses: objects per scene, roots blended per point and
# the attack's step size
N_OBJECTS = 6
K = 2
ATTACK_LR = 0.05


@dataclass(frozen=True)
class DeskSize:
    """How much work a desk workload does; the self-tests shrink each field."""
    splits: tuple
    victim_epochs: int
    attack_iters: int
    groups: int = 12
    variants: int = 2
    step: float = 0.2


@dataclass(frozen=True)
class SegSize(DeskSize):
    retrain_epochs: int = 4
    baseline_boxes: int = 12
    baseline_iters: int = 2


SEG_SIZE = SegSize(splits=(24, 12, 12, 12), victim_epochs=6, attack_iters=3)
DET_SIZE = DeskSize(splits=(24, 16, 0, 16), victim_epochs=24, attack_iters=2)


@dataclass(frozen=True)
class IoSize:
    splits: tuple = (24, 8, 8, 8)
    groups: int = 12
    variants: int = 6
    step: float = 0.2


def _car_boxes(scene):
    return [sb.box for sb in scene.boxes if sb.class_id == CAR]


class _Desk:
    """Set-up, attack stage and attack checks shared by the desk workloads."""

    mode = ""

    def __init__(self, size: DeskSize):
        self.size = size

    def train_victim(self, train, seed, ops):
        raise NotImplementedError

    def setup(self, seed, ops):
        splits = ops.call(simulator.make_splits, DESK_SCENE_BASE, sizes=self.size.splits,
                          sensor=DESK_SENSOR, n_objects=N_OBJECTS)
        return {"seed": seed, "splits": splits,
                "victim": self.train_victim(splits["train"], seed, ops)}

    def check_setup(self, state, ops, workdir):
        check_splits(ops, state["splits"])
        path = workdir / "clean.ckpt"
        victim.save_checkpoint(state["victim"], path)
        check_checkpoint_round_trip(ops, f"{self.name} victim", state["victim"],
                                    victim.load_checkpoint(path))

    def attack_stage(self, state, tracer, ops, workdir):
        """Fit a car bank against the clean victim, then save and load it."""
        size, seed = self.size, state["seed"]
        with tracer.stage("attack"):
            bank = ops.call(field.make_bank, CAR, "car", CAR_DIMS, size.step,
                            size.groups, size.variants, seed)
            cfg = attack.AttackConfig(mode=self.mode, adversarial_class=CAR,
                                      eps=0.3, psi=0.3, lr=ATTACK_LR,
                                      iterations=size.attack_iters, k=K, seed=seed)
            bank, trace = ops.call(attack.fit_bank, bank, state["splits"]["train"],
                                   state["victim"], cfg)
            path = workdir / "car.vfb"
            ops.call(cloudio.save_bank, bank, path)
            loaded = ops.call(cloudio.load_bank, path)
        return {"bank": bank, "loaded": loaded, "cfg": cfg, "trace": trace}

    def check_attack(self, out, label, scenes, ops):
        """Bank limits, finite losses, bit-exact bank file, deformed scenes."""
        check_bank(ops, "fitted bank", out["bank"], out["cfg"], out["trace"])
        check_bank_round_trip(ops, "fitted", out["bank"], out["loaded"])
        check_along_rays(ops, label,
                         [(s.cloud, d) for s, d in zip(scenes, out["deformed"])],
                         DESK_SENSOR.origin)


class SegAugment(_Desk):
    """Segmentation loop: fit a bank, retrain with it, score, run baselines."""

    name = "seg-augment"
    mode = "seg-untargeted"

    def __init__(self, size: SegSize = SEG_SIZE):
        super().__init__(size)

    def train_victim(self, train, seed, ops):
        return ops.call(victim.train_seg, [s.cloud for s in train], N_CLASSES,
                        epochs=self.size.victim_epochs, lr=0.01, seed=seed)

    def run(self, state, tracer, ops, workdir):
        size, splits, model = self.size, state["splits"], state["victim"]
        train, val = splits["train"], splits["val"]
        out = self.attack_stage(state, tracer, ops, workdir)
        loaded = out["loaded"]
        with tracer.stage("retrain"):
            augmented = ops.call(evaluate.train_augmented, train, loaded, N_CLASSES,
                                 size.retrain_epochs, 0.01, RETRAIN_SEED, k=K)
        with tracer.stage("eval"):
            deformed = [ops.call(evaluate.deform_all_objects, s, loaded, k=K)
                        for s in val]
            car_iou = {}
            for tag, net in (("clean", model), ("augmented", augmented)):
                for split in ("val", "ood-rare", "ood-damaged"):
                    car_iou[tag, split] = ops.call(evaluate.miou_over_scenes, net,
                                                   splits[split], N_CLASSES).of(CAR)
                car_iou[tag, "attacked"] = ops.call(evaluate.miou_over_scenes, net,
                                                    deformed, N_CLASSES).of(CAR)
        targets = [(i, box) for i, s in enumerate(val) for box in _car_boxes(s)]
        targets = targets[:size.baseline_boxes]
        with tracer.stage("baseline"):
            attacked = {}
            for kind, fn in (("l2", baselines.iterative_gradient_l2),
                             ("chamfer", baselines.chamfer_attack)):
                clouds = {}
                for i, box in targets:
                    clouds[i] = ops.call(fn, clouds.get(i, val[i].cloud), box, model,
                                         iters=size.baseline_iters)
                attacked[kind] = [(val[i].cloud, c) for i, c in sorted(clouds.items())]
            l2_iou = ops.call(evaluate.miou_over_scenes, model,
                              [c for _, c in attacked["l2"]], N_CLASSES).of(CAR)
        out.update({
            "augmented": augmented, "deformed": deformed, "attacked": attacked,
            "car_iou": car_iou,
            "quality": {"attacked_car_iou": car_iou["clean", "attacked"],
                        "ood_car_iou": car_iou["augmented", "ood-damaged"],
                        "baseline_car_iou": l2_iou},
        })
        return out

    def digest(self, state, out):
        val, augmented = state["splits"]["val"], out["augmented"]
        return digest(*bank_arrays(out["bank"]), *model_arrays(augmented),
                      *[augmented.predict(s.cloud) for s in val],
                      *[state["victim"].predict(c) for c in out["deformed"]],
                      sorted(out["car_iou"].items()), out["quality"])

    def check(self, state, out, ops, workdir):
        self.check_attack(out, "val deformed by the bank", state["splits"]["val"], ops)
        for kind, pairs in out["attacked"].items():
            ops.check(f"{kind} baseline keeps labels and counts",
                      all(a.n == b.n and _same_bits(a.semantic, b.semantic)
                          for a, b in pairs))
            check_intensity(ops, f"{kind} baseline", [b for _, b in pairs])


class DetAttack(_Desk):
    """Detection loop: fit a bank against the detector, then AP and ASR."""

    name = "det-attack"
    mode = "detection"

    def __init__(self, size: DeskSize = DET_SIZE):
        super().__init__(size)

    def train_victim(self, train, seed, ops):
        return ops.call(victim.train_det, [s.cloud for s in train],
                        [_car_boxes(s) for s in train],
                        epochs=self.size.victim_epochs, lr=0.01, seed=seed)

    def run(self, state, tracer, ops, workdir):
        splits, model = state["splits"], state["victim"]
        scenes = splits["val"] + splits["ood-damaged"]
        out = self.attack_stage(state, tracer, ops, workdir)
        with tracer.stage("eval"):
            deformed = [ops.call(evaluate.deform_all_objects, s, out["loaded"], k=K)
                        for s in scenes]
            clean, gts = ops.call(evaluate.collect_detections, model, scenes,
                                  class_id=CAR)
            attacked, _ = ops.call(evaluate.collect_detections, model, scenes,
                                   class_id=CAR, transform=lambda i, s: deformed[i])
            clean_ap = ops.call(evaluate.average_precision, clean, gts, iou_thr=0.5)
            attacked_ap = ops.call(evaluate.average_precision, attacked, gts,
                                   iou_thr=0.5)
            asr = ops.call(evaluate.attack_success_rate, clean, attacked, gts,
                           iou_thr=0.5)
        out.update({
            "scenes": scenes, "deformed": deformed, "asr": asr,
            "detections": clean + attacked,
            "quality": {"clean_ap": clean_ap, "attacked_ap": attacked_ap},
        })
        return out

    def digest(self, state, out):
        dets = [(d.scene, d.score, *d.box.center.tolist(), d.box.width, d.box.height,
                 d.box.length, d.box.yaw) for d in out["detections"]]
        return digest(*bank_arrays(out["bank"]), *model_arrays(state["victim"]),
                      np.array(dets), out["quality"], out["asr"])

    def check(self, state, out, ops, workdir):
        self.check_attack(out, "val and ood-damaged deformed by the bank", out["scenes"],
                          ops)
        ap = out["quality"]
        ops.check("AP within [0, 1]",
                  all(0.0 <= v <= 1.0 for v in ap.values()), repr(ap))
        ops.check("ASR within [0, 100]", 0.0 <= out["asr"] <= 100.0, repr(out["asr"]))


class DatasetIo:
    """Default-sensor simulation, then scenes, bank and checkpoint written and read."""

    name = "dataset-io"

    def __init__(self, size: IoSize = IoSize()):
        self.size = size

    def setup(self, seed, ops):
        size = self.size
        bank = ops.call(field.make_bank, CAR, "car", CAR_DIMS, size.step, size.groups,
                        size.variants, seed)
        model = victim.SegNetMini(N_CLASSES)
        model.init_random(np.random.SeedSequence([seed, 1]))
        return {"seed": seed, "bank": bank, "victim": model}

    def check_setup(self, state, ops, workdir):
        pass

    def run(self, state, tracer, ops, workdir):
        sensor = simulator.SensorSpec()
        base = state["seed"] * SEED_STRIDE
        with tracer.stage("simulate"):
            splits = ops.call(simulator.make_splits, base, sizes=self.size.splits,
                              sensor=sensor, n_objects=N_OBJECTS)
        with tracer.stage("write"):
            for name, scenes in splits.items():
                directory = workdir / name
                directory.mkdir(parents=True, exist_ok=True)
                ops.call(simulator.write_sensor_config, sensor, directory)
                for index, scene in enumerate(scenes):
                    ops.call(simulator.write_scene, scene, directory, index)
            ops.call(cloudio.save_bank, state["bank"], workdir / "car.vfb")
            ops.call(victim.save_checkpoint, state["victim"], workdir / "victim.ckpt")
        with tracer.stage("read"):
            clouds = {}
            for name, scenes in splits.items():
                stem = workdir / name
                clouds[name] = [
                    ops.call(cloudio.read_labeled_cloud, stem / f"{i:06d}.bin",
                             stem / f"{i:06d}.label") for i in range(len(scenes))]
            bank = ops.call(cloudio.load_bank, workdir / "car.vfb")
            model = ops.call(victim.load_checkpoint, workdir / "victim.ckpt")
        return {"splits": splits, "clouds": clouds, "bank": bank, "victim": model,
                "quality": {}}

    def digest(self, state, out):
        arrays = [a for cs in out["clouds"].values() for c in cs
                  for a in (c.xyz, c.intensity, c.semantic, c.instance)]
        return digest(*arrays, *bank_arrays(out["bank"]), *model_arrays(out["victim"]))

    def check(self, state, out, ops, workdir):
        splits, clouds = out["splits"], out["clouds"]
        exact = True
        for name, scenes in splits.items():
            for scene, back in zip(scenes, clouds[name]):
                c = scene.cloud
                exact &= (_same_bits(back.xyz, c.xyz.astype(np.float32).astype(float))
                          and _same_bits(back.intensity,
                                         c.intensity.astype(np.float32).astype(float))
                          and _same_bits(back.semantic, c.semantic)
                          and _same_bits(back.instance, c.instance))
        ops.check("cloud round trips match to float32 precision", exact)
        check_bank_round_trip(ops, "12x6", state["bank"], out["bank"])
        check_checkpoint_round_trip(ops, "seg victim", state["victim"], out["victim"])
        check_splits(ops, splits)
        # the on-disk scene round trip every CLI subcommand reads through
        for name in splits:
            ops.attempt(f"load_split {name}", simulator.load_split, workdir / name)


WORKLOADS = {w.name: w for w in (SegAugment, DetAttack, DatasetIo)}
