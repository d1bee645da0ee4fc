"""Command-line front end.

Subcommands: sample, norms, game, bias, gap-sweep, verify, show.  All
randomness flows from --seed.  Exit codes: 0 success, 1 verification failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import game as game_mod
from . import pauli, sweep, tensor


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="xorgap", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("sample", help="sample a tensor and write it to a binary file")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--dist", choices=["gaussian", "bernoulli"], default="gaussian")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)

    np_ = sub.add_parser("norms", help="spectral and trilinear norms of a tensor file")
    np_.add_argument("--in", dest="infile", required=True)
    np_.add_argument("--als-restarts", type=int, default=8)
    np_.add_argument("--als-iters", type=int, default=200)
    np_.add_argument("--tol", type=float, default=1e-9)
    np_.add_argument("--net-eps", type=float, default=None)
    np_.add_argument("--seed", type=int, default=0)

    gp = sub.add_parser("game", help="build the Pauli-question game of a tensor file")
    gp.add_argument("--in", dest="infile", required=True)
    gp.add_argument("--out", required=True)

    bp = sub.add_parser("bias", help="evaluate game biases")
    bp.add_argument("kind", choices=["classical", "entangled", "seesaw"])
    bp.add_argument("--game", required=True)
    bp.add_argument("--d", type=int, default=2)
    bp.add_argument("--restarts", type=int, default=16)
    bp.add_argument("--seed", type=int, default=0)
    bp.add_argument("--tensor", default=None, help="tensor file (Pauli strategy source)")
    bp.add_argument("--strategy", default=None, help="strategy JSON to evaluate")

    gs = sub.add_parser("gap-sweep", help="run the sampling pipeline over several sizes")
    gs.add_argument("--n-list", default="1,2,3")
    gs.add_argument("--samples", type=int, default=20)
    gs.add_argument("--seed", type=int, default=0)
    gs.add_argument("--out", required=True)
    gs.add_argument("--budget-s", type=float, default=1800.0)
    gs.add_argument(
        "--resume", action="store_true", help="continue the sweep whose rows --out already holds"
    )

    vp = sub.add_parser("verify", help="run a verification suite")
    vp.add_argument("--suite", required=True)
    vp.add_argument("--seed", type=int, default=0)

    shp = sub.add_parser("show", help="summarize a tensor/game/gap file")
    shp.add_argument("file")

    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _dispatch(parser, args)
    # unreadable paths (missing, a directory), malformed files, bad arguments
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    return 2


def _dispatch(parser, args) -> int:
    if args.command == "sample":
        if not 1 <= args.n <= pauli.MAX_QUBITS:
            parser.error(f"--n must lie in 1..{pauli.MAX_QUBITS}, got {args.n}")
        cfg = tensor.SamplerConfig(distribution=args.dist, seed=args.seed)
        T = tensor.sample_tensor(args.n, cfg)
        tensor.save_tensor(args.out, T)
        print(f"wrote n={args.n} N={T.N} tensor to {args.out}")
        return 0

    if args.command == "norms":
        T = tensor.load_tensor(args.infile)
        # the net bound goes first, so a bad eps or an N != 2 tensor fails
        # before the ALS; nothing is printed until every value is known
        ub = None if args.net_eps is None else tensor.trilinear_norm_upper_net(T, args.net_eps)
        sn = tensor.spectral_norm(T)
        lower, _ = tensor.trilinear_norm_lower(
            T,
            restarts=args.als_restarts,
            max_iters=args.als_iters,
            tol=args.tol,
            seed=args.seed,
        )
        print(f"spectral_norm      = {sn!r}")
        print(f"trilinear_lower    = {lower!r}")
        if ub is not None:
            print(f"trilinear_upper    = {ub!r}  (eps={args.net_eps})")
        return 0

    if args.command == "game":
        T = tensor.load_tensor(args.infile)
        report = game_mod.game_from_tensor(T)
        game_mod.save_game_csv(args.out, report.game)
        print(
            f"l1_norm={report.l1_norm!r} pauli_bias={report.pauli_bias!r} "
            f"Q={report.game.Q} -> {args.out}"
        )
        return 0

    if args.command == "bias":
        G = game_mod.load_game_csv(args.game)
        if args.kind == "classical":
            val, _, method = game_mod.classical_bias(G, restarts=args.restarts, seed=args.seed)
            label = "exact" if method == "exact" else "heuristic lower bound"
            print(f"classical_bias = {val!r}  ({label})")
            return 0
        if args.kind == "entangled":
            if args.strategy is not None:
                with open(args.strategy) as fh:
                    S = game_mod.strategy_from_json(fh.read())
            elif args.tensor is not None:
                T = tensor.load_tensor(args.tensor)
                S = game_mod.pauli_strategy(tensor.hermitize(T))
            else:
                parser.error("bias entangled needs --strategy or --tensor")
            val = game_mod.entangled_bias_eval(G, S)
            print(f"entangled_bias_lb = {val!r}")
            return 0
        val, _ = game_mod.seesaw_entangled_bias(
            G, args.d, restarts=args.restarts, seed=args.seed
        )
        print(f"seesaw_bias_lb = {val!r}  (d={args.d})")
        return 0

    if args.command == "gap-sweep":
        try:
            n_list = [int(tok) for tok in args.n_list.split(",") if tok.strip()]
        except ValueError:
            parser.error("--n-list must be comma-separated integers")
        rows, token = sweep.gap_sweep(
            n_list,
            args.samples,
            args.seed,
            out=args.out,
            budget_s=args.budget_s,
            resume=args.resume,
        )
        print(f"wrote {len(rows)} rows to {args.out}")
        if token is not None:
            print(f"budget exhausted before (n, index) = {token}; rerun with --resume to continue")
        return 0

    if args.command == "verify":
        report = sweep.verify_suite(args.suite, seed=args.seed)
        for line in report.lines:
            print(line)
        print(f"suite {report.name}: {'PASS' if report.passed else 'FAIL'}")
        return 0 if report.passed else 1

    if args.command == "show":
        print(sweep.show(args.file))
        return 0

    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
