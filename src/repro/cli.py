"""Command-line interface: ``python -m repro <command>``.

A thin front-end over the experiment runner so the paper's artefacts
can be regenerated without writing Python:

=================  ====================================================
``stats``          Table I dataset statistics.
``table2``         CFSF vs SIR/SUR MAE grid (Table II).
``table3``         CFSF vs the state of the art (Table III).
``sweep``          One-parameter sensitivity curve (Figs. 2-4, 6-8).
``scalability``    Online response-time curve (Fig. 5).
``recommend``      Top-N items for one active user.
``crossval``       k-fold cross-validated MAE with variance.
``tune``           Grid-search CFSF online parameters.
``serve``          Fault-tolerant batch serving through the fallback
                   chain (optionally with injected faults).
``metrics``        Run an instrumented fit + serving pass and print
                   the metrics snapshot (JSON or Prometheus text).
=================  ====================================================

Every command accepts ``--seed`` (default 0) and ``--train-sizes`` /
``--given`` where applicable; run ``python -m repro <command> -h`` for
the full flags.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
from typing import Sequence

from repro.baselines import (
    EMDP,
    SCBPCC,
    AspectModel,
    ItemBasedCF,
    PersonalityDiagnosis,
    SimilarityFusion,
    UserBasedCF,
)
from repro.core import CFSF, CFSFConfig, recommend_top_n, save_model
from repro.data import dataset_source, default_dataset, make_split
from repro.eval import (
    ascii_plot,
    cross_validate,
    format_paper_table,
    format_table,
    mae,
    run_grid,
    scalability_sweep,
    sweep_cfsf_parameter,
    tune_cfsf,
)
from repro.serving import PredictionService
from repro.serving.faults import (
    FlakyRecommender,
    SlowRecommender,
    corrupt_snapshot,
    poison_given,
)

__all__ = ["main", "build_parser"]

_TABLE2_METHODS = {
    "CFSF": lambda: CFSF(),
    "SUR": lambda: UserBasedCF(),
    "SIR": lambda: ItemBasedCF(),
}
_TABLE3_METHODS = {
    "CFSF": lambda: CFSF(),
    "AM": lambda: AspectModel(),
    "EMDP": lambda: EMDP(),
    "SCBPCC": lambda: SCBPCC(),
    "SF": lambda: SimilarityFusion(),
    "PD": lambda: PersonalityDiagnosis(),
}
_SWEEPABLE = {
    "M": "top_m_items",
    "K": "top_k_users",
    "C": "n_clusters",
    "lambda": "lam",
    "delta": "delta",
    "w": "epsilon",
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="CFSF (ICPP 2009) reproduction — regenerate the paper's experiments.",
    )
    parser.add_argument("--seed", type=int, default=0, help="root seed (default 0)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("stats", help="Table I dataset statistics")

    for name, help_text in (
        ("table2", "Table II: CFSF vs SIR/SUR"),
        ("table3", "Table III: CFSF vs the state of the art"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument(
            "--train-sizes", type=int, nargs="+", default=[100, 200, 300],
            help="training prefixes (default 100 200 300)",
        )
        p.add_argument(
            "--given", type=int, nargs="+", default=[5, 10, 20],
            help="GivenN values (default 5 10 20)",
        )

    p = sub.add_parser("sweep", help="sensitivity curve for one CFSF parameter")
    p.add_argument("parameter", choices=sorted(_SWEEPABLE), help="which knob")
    p.add_argument("values", type=float, nargs="+", help="values to sweep")
    p.add_argument("--train-size", type=int, default=300)
    p.add_argument("--given-n", type=int, default=10)

    p = sub.add_parser("scalability", help="Fig. 5 online response-time curve")
    p.add_argument("--train-size", type=int, default=300)
    p.add_argument(
        "--fractions", type=float, nargs="+", default=[0.25, 0.5, 0.75, 1.0]
    )

    p = sub.add_parser("crossval", help="k-fold cross-validated MAE")
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--given-n", type=int, default=10)
    p.add_argument(
        "--methods", nargs="+", default=["CFSF", "EMDP"],
        choices=sorted(_TABLE3_METHODS),
    )

    p = sub.add_parser("tune", help="grid-search CFSF online parameters")
    p.add_argument("--train-size", type=int, default=300)
    p.add_argument("--given-n", type=int, default=10)
    p.add_argument("--lam", type=float, nargs="+", default=[0.2, 0.4, 0.6, 0.8])
    p.add_argument("--delta", type=float, nargs="+", default=[0.1, 0.3, 0.5])
    p.add_argument("--epsilon", type=float, nargs="+", default=[0.35, 0.65, 0.8])

    p = sub.add_parser("recommend", help="top-N items for one active user")
    p.add_argument("--user", type=int, default=0, help="active user row")
    p.add_argument("--n", type=int, default=10, help="list length")
    p.add_argument("--train-size", type=int, default=300)
    p.add_argument("--given-n", type=int, default=10)

    p = sub.add_parser(
        "serve", help="fault-tolerant batch serving through the fallback chain"
    )
    p.add_argument("--train-size", type=int, default=300)
    p.add_argument("--given-n", type=int, default=10)
    p.add_argument(
        "--requests", type=int, default=400, help="number of predictions to serve"
    )
    p.add_argument(
        "--deadline-ms", type=float, default=None,
        help="latency budget for the batch; overruns degrade to cheap stages",
    )
    p.add_argument(
        "--snapshot", default=None,
        help="round-trip the model through this snapshot path before serving",
    )
    p.add_argument(
        "--inject",
        choices=["none", "stage-failure", "latency", "poison-given", "corrupt-snapshot"],
        default="none",
        help="fault to inject before serving (demonstrates degradation)",
    )

    p = sub.add_parser(
        "metrics",
        help="instrumented fit + serving pass; print the metrics snapshot",
    )
    p.add_argument(
        "--format", choices=["json", "prometheus"], default="json",
        help="exposition format (default json)",
    )
    p.add_argument("--train-size", type=int, default=100)
    p.add_argument("--given-n", type=int, default=10)
    p.add_argument(
        "--requests", type=int, default=200, help="number of predictions to serve"
    )
    p.add_argument(
        "--batches", type=int, default=4,
        help="serve the requests in this many batches (populates the "
             "latency histogram with several samples)",
    )
    return parser


def _cmd_stats(args: argparse.Namespace) -> int:
    ratings = default_dataset(seed=args.seed)
    print(f"data source: {dataset_source(seed=args.seed)}")
    print(format_table(["statistic", "value"], ratings.stats().as_rows(),
                       title="Table I: statistics of the dataset"))
    return 0


def _cmd_table(args: argparse.Namespace, methods) -> int:
    ratings = default_dataset(seed=args.seed)
    grid = run_grid(
        ratings,
        methods,
        training_sizes=tuple(args.train_sizes),
        given_sizes=tuple(args.given),
        seed=args.seed,
        progress=print,
    )
    print()
    print(
        format_paper_table(
            grid.mae_map(),
            training_sets=[f"ML_{n}" for n in sorted(args.train_sizes, reverse=True)],
            methods=list(methods),
            given_labels=[f"Given{g}" for g in args.given],
            title="Measured MAE",
        )
    )
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    parameter = _SWEEPABLE[args.parameter]
    values: list = list(args.values)
    if parameter in ("top_m_items", "top_k_users", "n_clusters"):
        values = [int(v) for v in values]
    ratings = default_dataset(seed=args.seed)
    split = make_split(
        ratings, n_train_users=args.train_size, given_n=args.given_n, seed=args.seed
    )
    results = sweep_cfsf_parameter(split, parameter, values, base_config=CFSFConfig())
    rows = [[v, r.mae] for v, r in results]
    print(format_table([args.parameter, "MAE"], rows,
                       title=f"CFSF sensitivity on {split.name}", float_fmt="{:.4f}"))
    print()
    print(ascii_plot([float(v) for v in values],
                     {split.name: [r.mae for _, r in results]},
                     x_label=args.parameter))
    return 0


def _cmd_scalability(args: argparse.Namespace) -> int:
    ratings = default_dataset(seed=args.seed)
    split = make_split(
        ratings, n_train_users=args.train_size, given_n=20, seed=args.seed
    )
    sweep = scalability_sweep(
        split,
        {"CFSF": lambda: CFSF(), "SCBPCC": lambda: SCBPCC()},
        fractions=tuple(args.fractions),
        seed=args.seed,
    )
    rows = []
    for idx, frac in enumerate(args.fractions):
        rows.append(
            [f"{frac:.0%}", sweep["CFSF"][idx][1], sweep["SCBPCC"][idx][1]]
        )
    print(format_table(["testset", "CFSF (s)", "SCBPCC (s)"], rows,
                       title=f"Online (batched) response time, ML_{args.train_size}"))
    return 0


def _cmd_crossval(args: argparse.Namespace) -> int:
    ratings = default_dataset(seed=args.seed)
    rows = []
    for name in args.methods:
        result = cross_validate(
            _TABLE3_METHODS[name],
            ratings,
            n_folds=args.folds,
            given_n=args.given_n,
            seed=args.seed,
        )
        rows.append([name, result.mae_mean, result.mae_std, result.n_folds])
        print(result.summary())
    print()
    print(format_table(["method", "MAE mean", "MAE std", "folds"], rows,
                       title=f"{args.folds}-fold cross-validation, Given{args.given_n}",
                       float_fmt="{:.4f}"))
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    ratings = default_dataset(seed=args.seed)
    train = ratings.subset_users(range(args.train_size))
    result = tune_cfsf(
        train,
        {"lam": args.lam, "delta": args.delta, "epsilon": args.epsilon},
        given_n=args.given_n,
        seed=args.seed,
    )
    print(format_table(
        ["rank", "overrides", "validation MAE"],
        [[i + 1, str(t.as_dict()), t.mae] for i, t in enumerate(result.top(5))],
        title=f"Best of {result.n_trials} trials (inner validation split)",
        float_fmt="{:.4f}",
    ))
    best = result.best_config
    print(f"\nbest: lam={best.lam} delta={best.delta} epsilon={best.epsilon} "
          f"(validation MAE {result.best_mae:.4f})")
    return 0


def _cmd_recommend(args: argparse.Namespace) -> int:
    ratings = default_dataset(seed=args.seed)
    split = make_split(
        ratings, n_train_users=args.train_size, given_n=args.given_n, seed=args.seed
    )
    model = CFSF().fit(split.train)
    rec = recommend_top_n(model, split.given, args.user, n=args.n)
    print(format_table(["rank", "item", "score"],
                       [[rank + 1, item, score] for rank, (item, score) in enumerate(rec.as_pairs())],
                       title=f"Top-{args.n} for active user {args.user} ({split.name})"))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    ratings = default_dataset(seed=args.seed)
    split = make_split(
        ratings, n_train_users=args.train_size, given_n=args.given_n, seed=args.seed
    )
    model = CFSF().fit(split.train)

    snapshot = args.snapshot
    if args.inject == "corrupt-snapshot" and snapshot is None:
        snapshot = os.path.join(tempfile.mkdtemp(prefix="repro-serve-"), "model.npz")
    if snapshot is not None:
        save_model(model, snapshot)
        print(f"snapshot saved to {snapshot}")

    primary = model
    if args.inject == "stage-failure":
        primary = FlakyRecommender(model, fail_times=3)
        print("injected: primary stage fails its first 3 calls")
    elif args.inject == "latency":
        primary = SlowRecommender(model, delay=0.02)
        print("injected: +20ms latency per primary-stage call")

    service = PredictionService(primary, snapshot_path=snapshot)

    if args.inject == "corrupt-snapshot":
        corrupt_snapshot(snapshot)
        ok = service.reload()
        status = "reloaded" if ok else "kept last-known-good model"
        print(
            f"injected: snapshot corrupted on disk -> reload {status} "
            f"({type(service.last_reload_error).__name__})"
        )

    given = split.given
    if args.inject == "poison-given":
        given = poison_given(given, [(0, 0, float("nan")), (1, 1, 99.0)])
        print("injected: NaN and out-of-range ratings in the given matrix")

    users, items, truth = split.targets_arrays()
    n = min(max(args.requests, 1), users.size)
    users, items, truth = users[:n], items[:n], truth[:n]
    deadline = None if args.deadline_ms is None else args.deadline_ms / 1000.0
    result = service.predict_many(given, users, items, deadline=deadline)

    rows = [[name, count] for name, count in result.level_counts().items()]
    print()
    print(format_table(["stage", "requests"], rows,
                       title="Requests served per fallback stage"))
    print(
        f"\nrequests: {len(result)}  degraded: {result.degraded_fraction:.1%}  "
        f"invalid: {int(result.invalid.sum())}  "
        f"deadline deferred: {int(result.deadline_deferred.sum())}  "
        f"elapsed: {result.elapsed * 1000.0:.1f}ms"
    )
    print(f"MAE over served batch: {mae(truth, result.predictions):.4f}")
    states = ", ".join(f"{k}={v}" for k, v in service.breaker_states().items())
    print(f"breakers: {states}")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs import MetricsRegistry, render_json, render_prometheus, use_registry

    registry = MetricsRegistry()
    ratings = default_dataset(seed=args.seed)
    split = make_split(
        ratings, n_train_users=args.train_size, given_n=args.given_n, seed=args.seed
    )
    # The offline phase runs under the registry so the fit spans
    # (model.fit -> gis.build / cluster.fit / smooth.apply /
    # icluster.build / gis.order) land in the snapshot alongside the serving
    # metrics.
    with use_registry(registry):
        model = CFSF().fit(split.train)
    service = PredictionService(model, metrics=registry)

    users, items, _ = split.targets_arrays()
    n = min(max(args.requests, 1), users.size)
    step = max(1, -(-n // max(1, args.batches)))  # ceil division
    for start in range(0, n, step):
        service.predict_many(
            split.given, users[start : start + step], items[start : start + step]
        )

    if args.format == "prometheus":
        print(render_prometheus(registry), end="")
    else:
        print(render_json(registry))
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "stats":
        return _cmd_stats(args)
    if args.command == "table2":
        return _cmd_table(args, _TABLE2_METHODS)
    if args.command == "table3":
        return _cmd_table(args, _TABLE3_METHODS)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "scalability":
        return _cmd_scalability(args)
    if args.command == "crossval":
        return _cmd_crossval(args)
    if args.command == "tune":
        return _cmd_tune(args)
    if args.command == "recommend":
        return _cmd_recommend(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
