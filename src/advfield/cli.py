"""Command-line entry point orchestrating the full pipeline reproducibly.

Every subcommand writes a manifest (the fully resolved configuration plus
seeds, a git describe string, and wall time) next to its outputs: a
directory output ``<dir>`` holds ``<dir>/manifest.cfg``, and a file output
``<name>`` gets ``<name>.manifest.cfg`` beside it, so that outputs sharing a
directory keep their own manifests. Rerunning with ``--config <manifest>``
reproduces the data outputs bit for bit. Exit codes: 0 success, 2
configuration error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import math
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import attack as attack_mod
from . import baselines, cloudio, evaluate, simulator, victim as victim_mod
from .field import make_bank
from .rotation import BOX_MODES, GroupScheme, target_boxes

EXIT_CONFIG = 2
EXIT_NUMERIC = 3

# the --metrics names eval accepts for each victim kind
SEG_METRICS = ("miou", "distance-bins", "intensity-suite")
DET_METRICS = ("ap", "asr")

# the IoU above which a detection matches a ground-truth box, unless --iou-thr
DET_IOU_THR = 0.7


def _git_describe() -> str:
    try:
        out = subprocess.run(["git", "describe", "--always", "--dirty"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except OSError:
        pass
    return "unknown"


def parallel_map(fn, items, threads: int):
    """Ordered map; results are collected in input order for determinism."""
    items = list(items)
    if threads <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def write_manifest(args: argparse.Namespace, path: Path, started: float) -> None:
    config = {"subcommand": args.command}
    skip = {"command", "func", "config"}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None:
            continue
        config[key.replace("_", "-")] = str(value)
    config["git-describe"] = _git_describe()
    config["wall-time-s"] = f"{time.time() - started:.3f}"
    path.parent.mkdir(parents=True, exist_ok=True)
    cloudio.write_config(config, path)


def _sensor_from_args(args) -> simulator.SensorSpec:
    return simulator.SensorSpec(
        origin_height=args.origin_height,
        channels=args.channels,
        azimuth_resolution=math.radians(args.azimuth_res_deg),
        max_range=args.max_range,
    )


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_simulate(args) -> int:
    out = Path(args.out)
    sensor = _sensor_from_args(args)
    if args.domain == "splits":
        sizes = tuple(int(s) for s in args.sizes.split(","))
        if len(sizes) != 4:
            raise ValueError("--sizes needs train,val,ood-rare,ood-damaged")
        splits = simulator.make_splits(args.seed, sizes=sizes, sensor=sensor,
                                       n_objects=args.objects)
        for name, scenes in splits.items():
            directory = out / name
            directory.mkdir(parents=True, exist_ok=True)
            simulator.write_sensor_config(sensor, directory)
            for index, scene in enumerate(scenes):
                simulator.write_scene(scene, directory, index)
    else:
        out.mkdir(parents=True, exist_ok=True)
        simulator.write_sensor_config(sensor, out)
        def build(index):
            return simulator.generate_scene(args.seed + index, args.domain,
                                            args.objects, sensor)
        scenes = parallel_map(build, range(args.scenes), args.threads)
        for index, scene in enumerate(scenes):
            simulator.write_scene(scene, out, index)
    return 0


def cmd_train_victim(args) -> int:
    scenes = simulator.load_split(args.data)
    bank = cloudio.load_bank(args.augment_bank) if args.augment_bank else None
    n_classes = len(simulator.CLASS_NAMES)
    if args.task == "seg":
        model = evaluate.train_augmented(scenes, bank, n_classes, args.epochs,
                                         args.lr, args.seed)
    else:
        car = simulator.CAR
        model = evaluate.train_augmented_det(scenes, bank, car, args.epochs,
                                             args.lr, args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    victim_mod.save_checkpoint(model, out)
    return 0


def cmd_attack(args) -> int:
    scenes = simulator.load_split(args.data)
    model = victim_mod.load_checkpoint(args.victim)
    class_id = simulator.CLASS_NAMES.index(args.cls)
    mode = {"untargeted": "seg-untargeted", "targeted": "seg-targeted",
            "detection": "detection"}[args.mode]
    target_id = simulator.CLASS_NAMES.index(args.target) if args.target else None
    # resolved into args, so that the manifest records it
    lr = args.lr = args.lr if args.lr is not None else (0.05 if mode == "detection" else 0.01)
    cfg = attack_mod.AttackConfig(
        mode=mode, adversarial_class=class_id, target_class=target_id,
        eps=args.eps, psi=args.psi, lr=lr, iterations=args.iters,
        seed=args.seed, box_drop=args.drop_boxes,
    )
    dims = tuple(float(d) for d in args.dims.split(","))
    # resolved into args, so that the manifest records the bank's group count
    args.G = args.G if args.boxes == "gt" else min(args.G, 6)
    bank = make_bank(class_id, args.cls, dims, args.step, args.G, args.N,
                     args.seed, eps=args.eps, psi=args.psi, boxes=args.boxes)
    bank, trace = attack_mod.fit_bank(bank, scenes, model, cfg)
    if trace.unused_slots:
        print(f"attack: {len(trace.unused_slots)} of {len(bank.fields)} field slots have "
              f"no target objects and keep their initial vectors; (group, variant): "
              + " ".join(f"({g},{v})" for g, v in trace.unused_slots), file=sys.stderr)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    cloudio.save_bank(bank, out)
    trace_lines = ["iteration,loss"]
    trace_lines += [f"{i},{loss!r}" for i, loss in enumerate(trace.losses)]
    out.with_suffix(".trace.csv").write_text("\n".join(trace_lines) + "\n",
                                             encoding="utf-8")
    return 0


def cmd_baseline_attack(args) -> int:
    scenes = simulator.load_split(args.data)
    model = victim_mod.load_checkpoint(args.victim)
    class_id = simulator.CLASS_NAMES.index(args.cls)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    fn = {
        "l2": baselines.iterative_gradient_l2,
        "chamfer": baselines.chamfer_attack,
        "remove": baselines.adversarial_removal,
        "generate": baselines.adversarial_generation,
    }[args.kind]
    kwargs = {"eps": args.eps, "psi": args.psi, "iters": args.iters}
    if args.kind == "chamfer":
        kwargs["lam"] = args.lam
    for index, scene in enumerate(scenes):
        cloud = scene.cloud
        # the gt boxes a field bank would deform; baselines need no group
        for box, _ in target_boxes(scene, class_id, "gt", GroupScheme(1), step=0.0):
            cloud = fn(cloud, box, model, **kwargs)
        cloudio.write_cloud(cloud, out / f"{index:06d}.bin")
        cloudio.write_labels(out / f"{index:06d}.label", cloud.semantic, cloud.instance)
    return 0


def cmd_eval(args) -> int:
    scenes = simulator.load_split(args.data)
    model = victim_mod.load_checkpoint(args.victim)
    n_classes = len(simulator.CLASS_NAMES)
    wanted = set(args.metrics.split(","))
    is_seg = isinstance(model, victim_mod.SegNetMini)
    known = SEG_METRICS if is_seg else DET_METRICS
    unknown = sorted(wanted.difference(known))
    if unknown:
        raise ValueError(f"--metrics {','.join(unknown)}: not a metric of a "
                         f"{'seg' if is_seg else 'det'} victim ({','.join(known)})")
    if is_seg and (args.bank is not None or args.iou_thr is not None):
        raise ValueError("--bank and --iou-thr are options of a det victim only")
    if not is_seg and (args.bank is not None) != ("asr" in wanted):
        raise ValueError("--metrics asr needs --bank for the attacked pass, "
                         "and --bank serves asr only")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    summary = []

    if is_seg:
        def scene_confusion(scene):
            return evaluate.confusion_matrix(model.predict(scene.cloud),
                                             scene.cloud.semantic, n_classes)
        if "miou" in wanted:
            total = sum(parallel_map(scene_confusion, scenes, args.threads))
            result = evaluate.iou_from_confusion(total)
            lines = ["class,iou,valid"]
            lines += [f"{name},{result.iou[i]!r},{int(result.valid[i])}"
                      for i, name in enumerate(simulator.CLASS_NAMES)]
            lines.append(f"mean,{result.mean!r},1")
            (out / "miou.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
            summary.append(f"miou {result.mean:.4f}")
        if "distance-bins" in wanted:
            rows = ["bin_low_m,class,iou,valid"]
            pred = [model.predict(s.cloud) for s in scenes]
            all_pred = np.concatenate(pred) if pred else np.zeros(0, np.int64)
            all_lab = np.concatenate([s.cloud.semantic for s in scenes])
            all_xyz = np.concatenate([s.cloud.xyz for s in scenes])
            ious, valid = evaluate.distance_binned_iou(
                all_pred, all_lab, all_xyz, scenes[0].sensor.origin, n_classes)
            for b in range(ious.shape[0]):
                for c, name in enumerate(simulator.CLASS_NAMES):
                    rows.append(f"{b * evaluate.DISTANCE_BIN_M},{name},{ious[b, c]!r},"
                                f"{int(valid[b, c])}")
            (out / "distance_bins.csv").write_text("\n".join(rows) + "\n",
                                                   encoding="utf-8")
            summary.append("distance-bins written")
        if "intensity-suite" in wanted:
            table = evaluate.intensity_suite(model, scenes, n_classes, seed=args.seed)
            rows = ["transform,miou," + ",".join(simulator.CLASS_NAMES)]
            for name, result in table.items():
                per = ",".join(repr(v) for v in result.iou)
                rows.append(f"{name},{result.mean!r},{per}")
            (out / "intensity_suite.csv").write_text("\n".join(rows) + "\n",
                                                     encoding="utf-8")
            summary.append("intensity-suite written")
    else:
        # resolved into args, so that the manifest records it
        iou_thr = args.iou_thr = DET_IOU_THR if args.iou_thr is None else args.iou_thr
        detections, gts = evaluate.collect_detections(model, scenes,
                                                      class_id=simulator.CAR)
        if "ap" in wanted:
            ap = evaluate.average_precision(detections, gts, iou_thr=iou_thr)
            (out / "ap.csv").write_text(f"iou_thr,ap\n{iou_thr!r},{ap!r}\n",
                                        encoding="utf-8")
            summary.append(f"ap@{iou_thr} {ap:.4f}")
        if "asr" in wanted:
            bank = cloudio.load_bank(args.bank)

            def deform_all(index, scene):
                return evaluate.deform_all_objects(scene, bank)

            attacked, _ = evaluate.collect_detections(
                model, scenes, class_id=simulator.CAR, transform=deform_all)
            asr = evaluate.attack_success_rate(detections, attacked, gts,
                                               iou_thr=iou_thr)
            (out / "asr.csv").write_text(f"iou_thr,asr_percent\n"
                                         f"{iou_thr!r},{asr!r}\n", encoding="utf-8")
            summary.append(f"asr {asr:.1f}%")

    (out / "summary.txt").write_text("\n".join(summary) + "\n", encoding="utf-8")
    return 0


def cmd_analyze_fields(args) -> int:
    bank = cloudio.load_bank(args.bank)
    stats = evaluate.analyze_fields(bank)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    evaluate.write_field_stats_csv(stats, out)
    return 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_sensor_flags(sub):
    sub.add_argument("--channels", type=int, default=32)
    sub.add_argument("--azimuth-res-deg", type=float, default=0.4)
    sub.add_argument("--origin-height", type=float, default=1.7)
    sub.add_argument("--max-range", type=float, default=80.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="advfield")
    parser.add_argument("--threads", type=int,
                        default=int(os.environ.get("ADVFIELD_THREADS",
                                                   os.cpu_count() or 1)))
    parser.add_argument("--config", help="a manifest to replay; flags given here win")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices  # name -> subparser, for --config

    p = sub.add_parser("simulate", help="generate labeled synthetic datasets")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--domain", default="splits",
                   choices=["normal", "rare", "damaged", "splits"])
    p.add_argument("--scenes", type=int, default=50)
    p.add_argument("--sizes", default="200,50,50,50")
    p.add_argument("--objects", type=int, default=None)
    p.add_argument("--out", required=True)
    _add_sensor_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train-victim", help="train a segmentation or detection victim")
    p.add_argument("--task", choices=["seg", "det"], default="seg")
    p.add_argument("--data", required=True)
    p.add_argument("--epochs", type=int, default=8)
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--augment-bank", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_victim)

    p = sub.add_parser("attack", help="fit a vector-field bank against a victim")
    p.add_argument("--mode", choices=["untargeted", "targeted", "detection"],
                   required=True)
    p.add_argument("--class", dest="cls", default="car", choices=simulator.CLASS_NAMES)
    p.add_argument("--target", default=None, choices=simulator.CLASS_NAMES)
    p.add_argument("--victim", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--G", type=int, default=12)
    p.add_argument("--N", type=int, default=6)
    p.add_argument("--eps", type=float, default=0.3)
    p.add_argument("--psi", type=float, default=0.3)
    p.add_argument("--iters", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=None,
                   help="default 0.05 for detection, 0.01 for segmentation")
    p.add_argument("--boxes", choices=BOX_MODES, default="gt")
    p.add_argument("--drop-boxes", type=float, default=0.0)
    p.add_argument("--dims", default=",".join(map(str, simulator.CANONICAL_CAR_DIMS)),
                   help="reference box w,h,l in meters")
    p.add_argument("--step", type=float, default=0.2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("baseline-attack", help="run a sample-specific baseline")
    p.add_argument("--kind", choices=["l2", "chamfer", "remove", "generate"],
                   required=True)
    p.add_argument("--class", dest="cls", default="car", choices=simulator.CLASS_NAMES)
    p.add_argument("--victim", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--eps", type=float, default=0.3)
    p.add_argument("--psi", type=float, default=0.3)
    p.add_argument("--iters", type=int, default=10)
    p.add_argument("--lam", type=float, default=0.1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_baseline_attack)

    p = sub.add_parser("eval", help="evaluate a victim and write report CSVs")
    p.add_argument("--victim", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--metrics", default="miou",
                   help="comma-separated; seg: " + ",".join(SEG_METRICS)
                   + "; det: " + ",".join(DET_METRICS))
    p.add_argument("--bank", default=None, help="det only: the bank asr attacks with")
    p.add_argument("--iou-thr", type=float, default=None,
                   help=f"det only; default {DET_IOU_THR}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze-fields", help="field activity statistics as CSV")
    p.add_argument("--bank", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze_fields)
    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list) -> list:
    """Apply ``--config <manifest>`` as parser defaults keyed by ``dest``.

    Flags given on the command line win. The manifest's subcommand is used
    when none is given and must match one that is, every other key must be
    an option of that subcommand or of the top-level parser, and a value must
    be one of its option's choices. Returns argv without the ``--config``
    pair.
    """
    if "--config" not in argv:
        return argv
    at = argv.index("--config")
    if at + 1 == len(argv):
        raise ValueError("--config needs a manifest path")
    config = cloudio.read_config(argv[at + 1])
    argv = argv[:at] + argv[at + 2:]
    command = config.pop("subcommand", None)
    if command not in parser.subcommands:
        raise ValueError(f"--config: the manifest names no subcommand ({command!r})")
    given = next((token for token in argv if token in parser.subcommands), None)
    if given is None:
        # after the only top-level flag, --threads, and its value
        lead = 2 if argv[:1] == ["--threads"] else 0
        argv = argv[:lead] + [command] + argv[lead:]
    elif given != command:
        raise ValueError(f"--config: the manifest is for {command!r}, not {given!r}")
    sub = parser.subcommands[command]
    sub_dests = {action.dest for action in sub._actions}
    values = {key.replace("-", "_"): value for key, value in config.items()
              if key not in ("git-describe", "wall-time-s")}
    top_dests = {action.dest for action in parser._actions}
    unknown = sorted(k for k in values if k not in sub_dests | top_dests)
    if unknown:
        raise ValueError(f"--config: {command!r} has no option "
                         + ", ".join(k.replace("_", "-") for k in unknown))
    parser.set_defaults(**{k: v for k, v in values.items() if k not in sub_dests})
    sub.set_defaults(**{k: v for k, v in values.items() if k in sub_dests})
    for action in sub._actions:
        action.required = action.required and action.dest not in values
        # argparse checks choices only on the command line, never on defaults
        value = values.get(action.dest)
        if action.choices is not None and value is not None and value not in action.choices:
            raise ValueError(f"--config: {action.option_strings[0]} {value!r} is not one of "
                             + ", ".join(action.choices))
    return argv


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    started = time.time()
    try:
        argv = _apply_config(parser, argv)
        args = parser.parse_args(argv)
    except (OSError, ValueError, KeyError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        code = args.func(args)
    except (OSError, cloudio.FormatError, ValueError, KeyError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    if code == 0:
        out = Path(args.out)
        manifest = (out / "manifest.cfg" if out.is_dir()
                    else out.with_name(f"{out.name}.manifest.cfg"))
        write_manifest(args, manifest, started)
    return code


if __name__ == "__main__":
    sys.exit(main())
