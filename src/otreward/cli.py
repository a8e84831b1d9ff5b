"""Command-line interface.

Commands: ``label`` (annotate a dataset against demonstrations),
``select-experts`` (pick top-return episodes), ``diagnose`` (compare
labeled vs ground-truth returns), ``demo-gridworld`` (end-to-end desk
demo). Exit codes: 0 success, 2 usage, 3 parse/data, 4 numeric, 5 I/O.
"""

from __future__ import annotations

import argparse
import sys
import time

from . import errors
from .costs import CostKind
from .dataset_io import (
    read_dataset,
    select_top_k_experts,
    write_dataset,
    write_diagnostics,
    write_labeled,
    return_correlations,
)
from .gridworld import LABELERS, load_harness_config, reference_config, run_demo
from .labeler import (LABEL_KEYS, PRESETS, LabelConfig, ScaleMode, label_dataset,
                      resolve_workers)
from .measures import FeatureMode

EXIT_OK = 0
# The exit code of each error category main catches, in the order it tests them.
EXIT_CODES: dict[type[Exception], int] = {errors.DataError: 3, errors.NumericError: 4,
                                          errors.DataIoError: 5, OSError: 5, ValueError: 2}


def _build_label_config(args: argparse.Namespace) -> LabelConfig:
    """The preset's settings with every flag the user set applied on top."""
    flags = {key: value for key, value in vars(args).items()
             if key in LABEL_KEYS and value is not None}
    return LabelConfig().with_text({**PRESETS.get(args.preset, {}), **flags})


def cmd_label(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    cfg = _build_label_config(args)
    workers = resolve_workers(args.parallelism)
    unlabeled = read_dataset(args.unlabeled)
    experts = read_dataset(args.experts)
    labeled = label_dataset(unlabeled.episodes, experts.episodes, cfg, workers=workers)
    rets = [lt.episodic_return() for lt in labeled]
    write_labeled(args.out, labeled)
    elapsed = time.perf_counter() - started
    print(f"episodes labeled = {len(labeled)}")
    if rets:
        print(f"episodic OT return: mean = {sum(rets) / len(rets):.6g}, "
              f"min = {min(rets):.6g}, max = {max(rets):.6g}")
    print(f"wall time = {elapsed:.2f} s")
    return EXIT_OK


def cmd_select_experts(args: argparse.Namespace) -> int:
    dataset = read_dataset(args.dataset)
    selected = select_top_k_experts(dataset, args.k)
    if len(selected) < args.k:
        print(f"warning: requested k={args.k} experts but dataset has only "
              f"{len(dataset)} episodes", file=sys.stderr)
    write_dataset(args.out, selected)
    print(f"selected {len(selected)} of {len(dataset)} episodes")
    return EXIT_OK


def _episodes_by_id(dataset, path) -> dict:
    """Episodes keyed by id, in file order; a repeated id is a DataError."""
    by_id = {}
    for ep in dataset.episodes:
        if by_id.setdefault(ep.id, ep) is not ep:
            raise errors.DataError(f"episode id {ep.id!r} appears more than once in {path}")
    return by_id


def cmd_diagnose(args: argparse.Namespace) -> int:
    labeled = read_dataset(args.labeled)
    truth_by_id = _episodes_by_id(read_dataset(args.truth), args.truth)

    rows = []
    labeled_returns = []
    truth_returns = []
    for ep in _episodes_by_id(labeled, args.labeled).values():
        if ep.id not in truth_by_id:
            raise errors.DataError(f"episode {ep.id!r} not present in {args.truth}")
        truth_ep = truth_by_id[ep.id]
        if truth_ep.rewards is None:
            raise errors.DataError(f"episode {ep.id!r} has no rewards in truth file")
        if ep.rewards is None:
            raise errors.DataError(f"episode {ep.id!r} has no rewards in labeled file")
        t_ret = truth_ep.episodic_return()
        l_ret = ep.episodic_return()
        rows.append((ep.id, repr(t_ret), repr(l_ret), ep.source_expert))
        truth_returns.append(t_ret)
        labeled_returns.append(l_ret)

    write_diagnostics(args.out, rows)
    pearson, spearman, degenerate = return_correlations(labeled_returns, truth_returns)
    if degenerate:
        print("warning: degenerate return variance, correlations reported as 0",
              file=sys.stderr)
    print(f"episodes compared = {len(rows)}")
    print(f"pearson = {pearson:.6f}")
    print(f"spearman = {spearman:.6f}")
    return EXIT_OK


def cmd_demo_gridworld(args: argparse.Namespace) -> int:
    if args.config:
        config = load_harness_config(args.config)
    else:
        config = reference_config()
    result = run_demo(config, args.labeler)
    print(f"labeler = {result.labeler}")
    print(f"episodes labeled = {result.episodes_labeled}")
    print(f"label time = {result.label_seconds:.2f} s")
    print(
        f"fit time = {result.fit_seconds:.2f} s "
        f"({result.trained_sweeps} sweeps)"
    )
    if result.degenerate_correlation:
        print("reward correlation: degenerate (reported as 0)")
    else:
        print(
            f"reward correlation: pearson = {result.pearson:.4f}, "
            f"spearman = {result.spearman:.4f}"
        )
    print(f"success_rate = {result.success_rate}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="otreward",
        description="Label episodic datasets with optimal-transport rewards.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    label = sub.add_parser("label", help="label a dataset against demonstrations")
    label.add_argument("unlabeled", help="path to the unlabeled episode file")
    label.add_argument("experts", help="path to the expert demonstration file")
    label.add_argument("out", help="path for the labeled output file")
    label.add_argument("--preset", choices=list(PRESETS))
    label.add_argument("--cost", choices=[k.value for k in CostKind])
    label.add_argument("--features", choices=[m.value for m in FeatureMode])
    # LABEL_KEYS parses the values of these flags, as it does in config files.
    label.add_argument("--epsilon", help="entropic regularization")
    label.add_argument("--max-iters", dest="max_iterations",
                       metavar="MAX_ITERS", help="Sinkhorn iteration cap")
    label.add_argument("--alpha", help="squash scale")
    label.add_argument("--beta", help="squash rate")
    label.add_argument("--squash-mode", choices=[m.value for m in ScaleMode],
                       help="exponent beta (plain) or beta * 1000 / action_dim (locomotion)")
    label.add_argument("--action-dim",
                       help="action dimension for the locomotion exponent")
    label.add_argument("--post-scale",
                       help="none | return-range[:target] | shift:<delta>")
    label.add_argument("--parallelism", type=int, default=0,
                       help="worker processes (0 = all cores)")
    label.set_defaults(func=cmd_label)

    select = sub.add_parser("select-experts", help="pick top episodes by return")
    select.add_argument("dataset", help="path to a reward-annotated episode file")
    select.add_argument("out", help="path for the selected episodes")
    select.add_argument("--k", type=int, required=True, help="number of episodes")
    select.set_defaults(func=cmd_select_experts)

    diag = sub.add_parser("diagnose", help="compare labeled vs ground-truth returns")
    diag.add_argument("labeled", help="path to the labeled episode file")
    diag.add_argument("truth", help="path to the ground-truth episode file")
    diag.add_argument("out", help="path for the diagnostics CSV")
    diag.set_defaults(func=cmd_diagnose)

    demo = sub.add_parser("demo-gridworld", help="end-to-end gridworld demo")
    demo.add_argument("--config", help="key = value config file (default: built-in)")
    demo.add_argument("--labeler", choices=list(LABELERS), default="otr")
    demo.set_defaults(func=cmd_demo_gridworld)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


def entry_point() -> None:  # pragma: no cover - thin wrapper
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entry_point()
