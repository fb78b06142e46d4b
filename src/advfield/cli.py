"""Command-line entry point orchestrating the full pipeline reproducibly.

Every subcommand writes a manifest (the fully resolved configuration plus
seeds, a git describe string, and wall time) next to its outputs: a
directory output ``<dir>`` holds ``<dir>/manifest.cfg``, and a file output
``<name>`` gets ``<name>.manifest.cfg`` beside it, so that outputs sharing a
directory keep their own manifests. A manifest holds exactly the options its
run read: an option that the run's mode ignores is left out, and an option
whose default the mode decides is recorded at the value read (see
:func:`read_option`). Rerunning with ``--config <manifest>``
reproduces the data outputs bit for bit: each recorded option goes in as its
flag, ahead of the flags given, which win. Every option belongs to a
subcommand; the top level takes only ``-h``. A single-domain ``simulate`` and
a segmentation ``eval`` spread their scenes over a thread pool sized from the
machine's CPU count and collect the results in input order, so no output
depends on the machine. ``main`` returns 0 on success, 2 on any configuration
error and 3 on a numeric failure; only ``--help`` exits.
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


def parallel_map(fn, items):
    """Ordered map on one thread per CPU, at most one per item; serial on one.

    Results are collected in input order, so they do not depend on the pool.
    """
    items = list(items)
    threads = min(os.cpu_count() or 1, len(items))
    if threads <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(fn, items))


def read_option(args, name: str, default, read: bool = True):
    """``args.<name>``, or ``default`` when not given, if the run reads it; None if not.

    The result goes back into ``args``, so that the manifest records exactly
    the options the run read, each with the value it read.
    """
    value = getattr(args, name)
    setattr(args, name, (default if value is None else value) if read else None)
    return getattr(args, name)


def write_manifest(args: argparse.Namespace, path: Path, started: float) -> None:
    config = {"subcommand": args.command}
    skip = {"command", "func"}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None:
            continue
        config[key.replace("_", "-")] = str(value)
    config["git-describe"] = _git_describe()
    config["wall-time-s"] = f"{time.time() - started:.3f}"
    cloudio.write_config(config, path)


def finite_float(text: str) -> float:
    """The argparse type of every float option: a number, neither nan nor infinite."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return value


def non_negative_int(text: str) -> int:
    """The argparse type of each seed and each scene, iteration or epoch count: an integer >= 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= 0")
    return value


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

def cmd_simulate(args) -> None:
    out = Path(args.out)
    sensor = _sensor_from_args(args)
    splits_mode = args.domain == "splits"
    read_option(args, "scenes", 50, read=not splits_mode)
    read_option(args, "sizes", "200,50,50,50", read=splits_mode)
    if splits_mode:
        sizes = tuple(int(s) for s in args.sizes.split(","))
        if len(sizes) != 4 or min(sizes) < 0:
            raise ValueError("--sizes needs four counts >= 0: train,val,ood-rare,ood-damaged")
        splits = simulator.make_splits(args.seed, sizes=sizes, sensor=sensor,
                                       n_objects=args.objects)
    else:
        def build(index):
            return simulator.generate_scene(args.seed + index, args.domain,
                                            args.objects, sensor)
        # one split, written to --out itself
        splits = {"": parallel_map(build, range(args.scenes))}
    crowded = []
    for name, scenes in splits.items():
        simulator.write_split(scenes, out / name, sensor)
        crowded += [f"{Path(name, f'{index:06d}')} ({len(scene.boxes)})"
                    for index, scene in enumerate(scenes)
                    if args.objects is not None and len(scene.boxes) < args.objects]
    if crowded:
        total = sum(len(scenes) for scenes in splits.values())
        print(f"simulate: {len(crowded)} of {total} scenes had no room for all {args.objects} "
              "objects and hold fewer; scene (objects): " + " ".join(crowded), file=sys.stderr)


def cmd_train_victim(args) -> None:
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
    victim_mod.save_checkpoint(model, args.out)


def cmd_attack(args) -> None:
    scenes = simulator.load_split(args.data)
    model = victim_mod.load_checkpoint(args.victim)
    class_id = simulator.CLASS_NAMES.index(args.cls)
    mode = {"untargeted": "seg-untargeted", "targeted": "seg-targeted",
            "detection": "detection"}[args.mode]
    if args.target is not None and args.mode != "targeted":
        raise ValueError("--target is an option of --mode targeted only")
    target_id = simulator.CLASS_NAMES.index(args.target) if args.target else None
    lr = read_option(args, "lr", 0.05 if mode == "detection" else 0.01)
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
    cloudio.save_bank(bank, out)
    cloudio.write_lines(out.with_suffix(".trace.csv"), ["iteration,loss"]
                        + [f"{i},{loss!r}" for i, loss in enumerate(trace.losses)])


def cmd_baseline_attack(args) -> None:
    scenes = simulator.load_split(args.data)
    model = victim_mod.load_checkpoint(args.victim)
    if not isinstance(model, victim_mod.SegNetMini):
        raise ValueError("baseline-attack needs a segmentation victim")
    class_id = simulator.CLASS_NAMES.index(args.cls)
    fn = {
        "l2": baselines.iterative_gradient_l2,
        "chamfer": baselines.chamfer_attack,
        "remove": baselines.adversarial_removal,
        "generate": baselines.adversarial_generation,
    }[args.kind]
    kwargs = {"eps": args.eps, "psi": args.psi, "iters": args.iters}
    lam = read_option(args, "lam", 0.1, read=args.kind == "chamfer")
    if lam is not None:
        kwargs["lam"] = lam
    attacked = []
    for scene in scenes:
        cloud = scene.cloud
        # the gt boxes a field bank would deform; baselines need no group
        for box, _ in target_boxes(scene, class_id, "gt", GroupScheme(1), step=0.0):
            cloud = fn(cloud, box, model, **kwargs)
        attacked.append(simulator.Scene(scene.sensor, cloud, scene.boxes))
    # a split that eval and train-victim read like any other
    simulator.write_split(attacked, args.out, scenes[0].sensor)


def cmd_eval(args) -> None:
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
    if args.iou_thr is not None and not 0.0 <= args.iou_thr < 1.0:
        # matching takes an IoU above the threshold, and disjoint boxes have IoU 0
        raise ValueError(f"--iou-thr {args.iou_thr!r} is outside [0, 1)")
    if not is_seg and (args.bank is not None) != ("asr" in wanted):
        raise ValueError("--metrics asr needs --bank for the attacked pass, "
                         "and --bank serves asr only")
    read_option(args, "seed", 0, read="intensity-suite" in wanted)
    # read before any report is written, so that a bank it refuses leaves none
    bank = cloudio.load_bank(args.bank) if args.bank is not None else None
    out = Path(args.out)
    summary = []

    if is_seg:
        pred = parallel_map(lambda scene: model.predict(scene.cloud), scenes)
        result = evaluate.iou_from_confusion(sum(
            evaluate.confusion_matrix(p, s.cloud.semantic, n_classes)
            for p, s in zip(pred, scenes)))
        if "miou" in wanted:
            lines = ["class,iou,valid"]
            lines += [f"{name},{iou!r},{int(valid)}" for name, iou, valid
                      in zip(simulator.CLASS_NAMES, result.iou.tolist(), result.valid)]
            lines.append(f"mean,{result.mean!r},1")
            cloudio.write_lines(out / "miou.csv", lines)
            summary.append(f"miou {result.mean:.4f}")
        if "distance-bins" in wanted:
            rows = ["bin_low_m,class,iou,valid"]
            all_pred = np.concatenate(pred)
            all_lab = np.concatenate([s.cloud.semantic for s in scenes])
            all_xyz = np.concatenate([s.cloud.xyz for s in scenes])
            ious, valid = evaluate.distance_binned_iou(
                all_pred, all_lab, all_xyz, scenes[0].sensor.origin, n_classes)
            for b, (bin_ious, bin_valid) in enumerate(zip(ious.tolist(), valid)):
                for name, iou, ok in zip(simulator.CLASS_NAMES, bin_ious, bin_valid):
                    rows.append(f"{b * evaluate.DISTANCE_BIN_M},{name},{iou!r},{int(ok)}")
            cloudio.write_lines(out / "distance_bins.csv", rows)
            summary.append("distance-bins written")
        if "intensity-suite" in wanted:
            table = evaluate.intensity_suite(model, scenes, n_classes, result, seed=args.seed)
            rows = ["transform,miou," + ",".join(simulator.CLASS_NAMES)]
            for name, row in table.items():
                per = ",".join(map(repr, row.iou.tolist()))
                rows.append(f"{name},{row.mean!r},{per}")
            cloudio.write_lines(out / "intensity_suite.csv", rows)
            summary.append("intensity-suite written")
    else:
        iou_thr = read_option(args, "iou_thr", DET_IOU_THR)
        detections, gts = evaluate.collect_detections(model, scenes,
                                                      class_id=simulator.CAR)
        if "ap" in wanted:
            ap = evaluate.average_precision(detections, gts, iou_thr=iou_thr)
            cloudio.write_lines(out / "ap.csv", ["iou_thr,ap", f"{iou_thr!r},{ap!r}"])
            summary.append(f"ap@{iou_thr} {ap:.4f}")
        if "asr" in wanted:
            def deform_all(index, scene):
                return evaluate.deform_all_objects(scene, bank)

            attacked, _ = evaluate.collect_detections(
                model, scenes, class_id=simulator.CAR, transform=deform_all)
            asr = evaluate.attack_success_rate(detections, attacked, gts,
                                               iou_thr=iou_thr)
            cloudio.write_lines(out / "asr.csv", ["iou_thr,asr_percent", f"{iou_thr!r},{asr!r}"])
            summary.append(f"asr {asr:.1f}%")

    cloudio.write_lines(out / "summary.txt", summary)


def cmd_analyze_fields(args) -> None:
    bank = cloudio.load_bank(args.bank)
    stats = evaluate.analyze_fields(bank)  # a bank has G, N >= 1: at least one row
    keys = list(stats[0])
    cloudio.write_lines(args.out, [",".join(keys)]
                        + [",".join(str(entry[k]) for k in keys) for entry in stats])


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------

def _add_sensor_flags(sub):
    sub.add_argument("--channels", type=int, default=32)
    sub.add_argument("--azimuth-res-deg", type=finite_float, default=0.4)
    sub.add_argument("--origin-height", type=finite_float, default=1.7)
    sub.add_argument("--max-range", type=finite_float, default=80.0)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors raise ValueError, for main to return EXIT_CONFIG."""

    def error(self, message):
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="advfield", epilog="--config <manifest>: replay it; flags given win")
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices  # name -> subparser, for --config

    p = sub.add_parser("simulate", help="generate labeled synthetic datasets")
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--domain", default="splits",
                   choices=["normal", "rare", "damaged", "splits"])
    p.add_argument("--scenes", type=non_negative_int, default=None,
                   help="one domain only; default 50")
    p.add_argument("--sizes", default=None,
                   help="splits only: train,val,ood-rare,ood-damaged; default 200,50,50,50")
    p.add_argument("--objects", type=int, default=None)
    p.add_argument("--out", required=True)
    _add_sensor_flags(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train-victim", help="train a segmentation or detection victim")
    p.add_argument("--task", choices=["seg", "det"], default="seg")
    p.add_argument("--data", required=True)
    p.add_argument("--epochs", type=non_negative_int, default=8)
    p.add_argument("--lr", type=finite_float, default=0.01)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--augment-bank", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_train_victim)

    p = sub.add_parser("attack", help="fit a vector-field bank against a victim")
    p.add_argument("--mode", choices=["untargeted", "targeted", "detection"],
                   required=True)
    p.add_argument("--class", dest="cls", default="car", choices=simulator.CLASS_NAMES)
    p.add_argument("--target", default=None, choices=simulator.CLASS_NAMES,
                   help="targeted mode only")
    p.add_argument("--victim", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--G", type=int, default=12)
    p.add_argument("--N", type=int, default=6)
    p.add_argument("--eps", type=finite_float, default=0.3)
    p.add_argument("--psi", type=finite_float, default=0.3)
    p.add_argument("--iters", type=non_negative_int, default=50)
    p.add_argument("--seed", type=non_negative_int, default=0)
    p.add_argument("--lr", type=finite_float, default=None,
                   help="default 0.05 for detection, 0.01 for segmentation")
    p.add_argument("--boxes", choices=BOX_MODES, default="gt")
    p.add_argument("--drop-boxes", type=finite_float, default=0.0)
    p.add_argument("--dims", default=",".join(map(str, simulator.CANONICAL_CAR_DIMS)),
                   help="reference box w,h,l in meters")
    p.add_argument("--step", type=finite_float, default=0.2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("baseline-attack", help="run a sample-specific baseline")
    p.add_argument("--kind", choices=["l2", "chamfer", "remove", "generate"],
                   required=True)
    p.add_argument("--class", dest="cls", default="car", choices=simulator.CLASS_NAMES)
    p.add_argument("--victim", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--eps", type=finite_float, default=0.3)
    p.add_argument("--psi", type=finite_float, default=0.3)
    p.add_argument("--iters", type=non_negative_int, default=10)
    p.add_argument("--lam", type=finite_float, default=None, help="chamfer only; default 0.1")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_baseline_attack)

    p = sub.add_parser("eval", help="evaluate a victim and write report CSVs")
    p.add_argument("--victim", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--metrics", default="miou",
                   help="comma-separated; seg: " + ",".join(SEG_METRICS)
                   + "; det: " + ",".join(DET_METRICS))
    p.add_argument("--bank", default=None, help="det only: the bank asr attacks with")
    p.add_argument("--iou-thr", type=finite_float, default=None,
                   help=f"det only; default {DET_IOU_THR}")
    p.add_argument("--seed", type=non_negative_int, default=None,
                   help="intensity-suite only; default 0")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("analyze-fields", help="field activity statistics as CSV")
    p.add_argument("--bank", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze_fields)
    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: list) -> list:
    """Splice ``--config <manifest>`` into argv, one ``--flag=value`` per recorded option.

    The subcommand is ``argv[0]``, since the top level takes no option but
    ``-h``. The manifest's subcommand goes there when none is given and must
    match one that is, and every other key must be an option of that
    subcommand. The recorded options go straight after the subcommand, ahead
    of the flags given, so that those flags win and argparse checks a
    recorded value exactly as it checks the flag.
    ``--config`` is not a parser option, so argparse refuses any other spelling of it.
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
    if argv and argv[0] in parser.subcommands:
        if argv[0] != command:
            raise ValueError(f"--config: the manifest is for {command!r}, not {argv[0]!r}")
        argv = argv[1:]
    flags = {action.dest: action.option_strings[0]
             for action in parser.subcommands[command]._actions if action.option_strings}
    # older manifests record threads, a removed option that never changed an output
    values = {key.replace("-", "_"): value for key, value in config.items()
              if key not in ("git-describe", "wall-time-s", "threads")}
    unknown = sorted(values.keys() - flags.keys())
    if unknown:
        raise ValueError(f"--config: {command!r} has no option "
                         + ", ".join(k.replace("_", "-") for k in unknown))
    return [command] + [f"{flags[k]}={v}" for k, v in values.items()] + argv


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    started = time.time()
    try:
        args = parser.parse_args(_apply_config(parser, argv))
        # before any output: a value the manifest cannot hold would not replay
        for action in parser.subcommands[args.command]._actions:
            value = getattr(args, action.dest, None)
            if action.option_strings and value is not None:
                cloudio.check_config_value(action.option_strings[0], value)
        args.func(args)
        out = Path(args.out)
        manifest = (out / "manifest.cfg" if out.is_dir()
                    else out.with_name(f"{out.name}.manifest.cfg"))
        write_manifest(args, manifest, started)
    except (OSError, ValueError, KeyError) as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, FloatingPointError) as err:
        print(f"numeric failure: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    return 0


if __name__ == "__main__":
    sys.exit(main())
