"""Command-line front end: reproducible, file-based region/knot experiments.

Exit codes: 0 success, 1 I/O error, 2 validation error (also used by argparse
for bad flags), 3 cell budget exceeded. Every run that writes outputs also
writes its resolved configuration as ``<subcommand>_config.json`` next to
them, and identical seed + configuration reproduce every CSV byte for byte.
The configuration also records the package version and the sha256 of each
input file (``--net``, ``--path``).
"""
from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from . import bounds as bnd
from . import constructions as cons
from . import geometry as geo
from . import stochastic as sto
from .core import NetworkSpec, Pointwise, ValidationError
from .geometry import BudgetExceeded
from .paths import count_knots
from .serial import (dumps_canonical, load_network, load_path, save_network)


# ---------------------------------------------------------------------------
# Small parsers and writers
# ---------------------------------------------------------------------------

def _int_list(text: str) -> tuple[int, ...]:
    try:
        items = tuple(int(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError:
        raise ValidationError(f"expected a comma-separated integer list, got {text!r}")
    if not items:
        raise ValidationError(f"expected a comma-separated integer list, got {text!r}")
    return items


def _parse_box(text: str):
    """``lo,hi`` (every coordinate) or ``x_lo,x_hi,y_lo,y_hi,...``."""
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValidationError(f"expected comma-separated box bounds, got {text!r}")
    if len(vals) == 2:
        return vals[0], vals[1]
    if len(vals) >= 4 and len(vals) % 2 == 0:
        lo = np.array(vals[0::2])
        hi = np.array(vals[1::2])
        return lo, hi
    raise ValidationError("box needs 2 bounds, or an even per-coordinate list")


def _write(out_dir: str, name: str, text: str) -> str:
    path = os.path.join(out_dir, name)
    os.makedirs(out_dir, exist_ok=True)
    with open(path, "w") as f:
        f.write(text)
    return path


def _sha256(file_path: str) -> str:
    with open(file_path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _write_config(args: argparse.Namespace, name: str) -> None:
    if args.out is None:
        return
    cfg = {k: v for k, v in sorted(vars(args).items())
           if k != "func" and not k.startswith("_")}
    cfg["cpwl_version"] = __version__
    cfg["input_sha256"] = {k: _sha256(cfg[k]) for k in ("net", "path") if k in cfg}
    _write(args.out, name + "_config.json", dumps_canonical(cfg))


def _emit(args: argparse.Namespace, name: str, text: str) -> None:
    if args.out is not None:
        path = _write(args.out, name, text)
        print(f"wrote {path}")


# ---------------------------------------------------------------------------
# bound / audit
# ---------------------------------------------------------------------------

# cli family -> bounds-module family, for the names that differ
_FAMILY_ALIASES = {"relu": "relu_net", "deepspline": "deepspline_net",
                   "maxout": "maxout_net", "groupsort": "groupsort_net"}


def _family_bound(args) -> dict:
    target = _FAMILY_ALIASES.get(args.family, args.family)
    if target not in bnd.FAMILIES:
        raise ValidationError(f"unknown family {args.family!r}; choose from "
                              + ", ".join(sorted({*_FAMILY_ALIASES, *bnd.FAMILIES})))
    params = {}
    for flag in bnd.FAMILIES[target][0]:
        val = getattr(args, flag)
        if val is None:
            raise ValidationError(f"family {args.family!r} needs --{flag.replace('_', '-')}")
        params[flag] = val
    rep = bnd.architecture_bound(target, **params)
    print(f"family {args.family} " +
          " ".join(f"{k}={','.join(map(str, v)) if isinstance(v, tuple) else v}"
                   for k, v in params.items()))
    if "factors" in rep.extras:
        print("per-layer factors: " + ", ".join(str(f) for f in rep.extras["factors"]))
    print(f"region upper bound = {rep.value}")
    # A Fraction (the groupsort_activation envelope) is written as text.
    extras = {k: v if isinstance(v, (int, float, list)) else str(v) for k, v in rep.extras.items()}
    return {"family": args.family,
            "params": {k: list(v) if isinstance(v, tuple) else v
                       for k, v in params.items()},
            "value": rep.value, "extras": extras}


def _uniform_audit(d_in: int, width: int, d_out: int, depth: int, kappa: int
                   ) -> tuple[dict, list[str]]:
    """Bounds for the uniform architecture plus any AUDIT findings."""
    env = bnd.corollary_envelope(d_in, width, d_out, depth, kappa)
    arch = bnd.ArchitectureDescriptor.uniform(d_in, width, d_out, depth, kappa)
    upper = bnd.compositional_upper(arch)
    alpha = bnd.alpha_report(arch)
    lines = [
        f"uniform architecture d_in={d_in} width={width} d_out={d_out} "
        f"depth={depth} kappa={kappa}",
        f"envelope lower (closed form)      = {env.lower_paper}",
        f"envelope lower (constructive)     = {env.lower_constructive}",
        f"envelope upper (closed form)      = {env.upper}",
        f"alpha-lower-paper                 = {alpha.paper_value}",
        f"alpha-lower-constructive          = {alpha.constructive_value}",
        f"compositional-upper               = {upper}",
    ]
    audits = []
    if alpha.paper_value > upper:
        audits.append(f"AUDIT: paper-lower {alpha.paper_value} > thm-upper {upper}")
    if alpha.constructive_value > upper:
        audits.append(f"AUDIT: constructive-lower {alpha.constructive_value} "
                      f"> thm-upper {upper}")
    if env.lower_paper > env.upper:
        audits.append(f"AUDIT: envelope lower {env.lower_paper} "
                      f"> envelope upper {env.upper}")
    if alpha.constructive_value == upper:
        lines.append(f"constructive lower meets the upper bound: {upper}")
    doc = {"d_in": d_in, "width": width, "d_out": d_out, "depth": depth,
           "kappa": kappa, "envelope_lower_closed": env.lower_paper,
           "envelope_lower_constructive": env.lower_constructive,
           "envelope_upper_closed": env.upper,
           "alpha_lower_paper": alpha.paper_value,
           "alpha_lower_constructive": alpha.constructive_value,
           "compositional_upper": upper, "audit": audits,
           "warnings": list(env.warnings)}
    return doc, lines + audits


def cmd_bound(args) -> int:
    doc: dict = {}
    did = False
    if args.beta is not None:
        d = int(args.beta[0])
        ns = _int_list(args.beta[1])
        val = bnd.beta(d, ns)
        print(f"beta({d}; {','.join(map(str, ns))}) = {val}")
        doc["beta"] = {"d": d, "ns": list(ns), "value": val}
        did = True
    if args.cor36 is not None:
        dims = args.cor36
        if len(dims) != 3:
            raise ValidationError("--cor36 needs d_in,width,d_out")
        if args.depth is None or args.kappa is None:
            raise ValidationError("--cor36 needs --depth and --kappa")
        audit_doc, lines = _uniform_audit(dims[0], dims[1], dims[2],
                                          args.depth, args.kappa)
        for line in lines:
            print(line)
        doc["uniform_envelope"] = audit_doc
        did = True
    if args.family is not None:
        doc["family_bound"] = _family_bound(args)
        did = True
    elif args.dims is not None and args.beta is None and args.cor36 is None:
        # Generic descriptor: compositional upper plus both alpha lowers.
        if args.kappa is None:
            raise ValidationError("a generic --dims bound needs --kappa")
        dims = args.dims
        kappas = tuple((args.kappa,) * dims[l + 1] for l in range(len(dims) - 1))
        arch = bnd.ArchitectureDescriptor(dims, kappas)
        upper = bnd.compositional_upper(arch)
        alpha = bnd.alpha_report(arch)
        print(f"dims {','.join(map(str, dims))} kappa {args.kappa}")
        print(f"alpha-lower-paper                 = {alpha.paper_value}")
        print(f"alpha-lower-constructive          = {alpha.constructive_value}")
        print(f"compositional-upper               = {upper}")
        if alpha.paper_value > upper:
            print(f"AUDIT: paper-lower {alpha.paper_value} > thm-upper {upper}")
        doc["descriptor"] = {"dims": list(dims), "kappa": args.kappa,
                             "alpha_lower_paper": alpha.paper_value,
                             "alpha_lower_constructive": alpha.constructive_value,
                             "compositional_upper": upper}
        did = True
    if not did:
        raise ValidationError("nothing to compute: pass --beta, --family, "
                              "--dims, or --cor36")
    _emit(args, "bound_report.json", dumps_canonical(doc))
    _write_config(args, "bound")
    return 0


def cmd_audit(args) -> int:
    dims = args.dims if args.dims is not None else (1, 4, 1)
    if len(dims) != 3:
        raise ValidationError("audit expects --dims d_in,width,d_out")
    depth = args.depth if args.depth is not None else 3
    kappa = args.kappa if args.kappa is not None else 2
    doc, lines = _uniform_audit(dims[0], dims[1], dims[2], depth, kappa)
    for line in lines:
        print(line)
    if not doc["audit"]:
        print("no lower/upper inconsistencies found")
    _emit(args, "audit_report.json", dumps_canonical(doc))
    _write_config(args, "audit")
    return 0


# ---------------------------------------------------------------------------
# count / render / knots
# ---------------------------------------------------------------------------

def cmd_count(args) -> int:
    net = load_network(args.net)
    domain = _parse_box(args.box) if args.box else None
    rs = geo.enumerate_regions(net, domain=domain, cell_budget=args.budget)
    report = geo.count_report(rs, net=net)
    print(f"cell_count = {report.cell_count}")
    print(f"distinct_piece_count = {report.distinct_piece_count}")
    print(f"connected_piece_count = {report.connected_piece_count}")
    for k in sorted(report.bounds):
        print(f"{k} = {report.bounds[k]}")
    _emit(args, "count_report.csv", geo.count_report_to_csv(report))
    if args.out is not None:
        _emit(args, "regions.json", dumps_canonical(geo.region_set_to_json(rs)))
    _write_config(args, "count")
    return 0


def cmd_render(args) -> int:
    net = load_network(args.net)
    if net.input_dim != 2:
        raise ValidationError("rendering requires a 2-input network")
    domain = _parse_box(args.box)
    rs = geo.enumerate_regions(net, domain=domain, cell_budget=args.budget)
    report = geo.count_report(rs, net=net)
    svg = geo.render_svg(rs)
    print(f"cell_count = {report.cell_count}")
    print(f"distinct_piece_count = {report.distinct_piece_count}")
    if args.out is None:
        args.out = "."
    _emit(args, args.name or "regions.svg", svg)
    _emit(args, "count_report.csv", geo.count_report_to_csv(report))
    _write_config(args, "render")
    return 0


def cmd_knots(args) -> int:
    net = load_network(args.net)
    path = load_path(args.path)
    report = count_knots(net, path, prefixes=args.prefixes)
    print(f"knot_count = {report.count}")
    print(f"path_length = {report.length!r}")
    print(f"knot_density = {report.density!r}")
    if report.prefix_counts is not None:
        print("prefix_counts = " + ",".join(str(c) for c in report.prefix_counts))
    lines = ["param,layer,at_vertex"]
    for s, l, v in zip(report.knot_params, report.layers, report.at_vertex):
        lines.append(f"{float(s)!r},{int(l)},{'true' if v else 'false'}")
    _emit(args, "knots.csv", "\n".join(lines) + "\n")
    _write_config(args, "knots")
    return 0


# ---------------------------------------------------------------------------
# mc
# ---------------------------------------------------------------------------

def cmd_mc(args) -> int:
    init = sto.InitSpec(weight_dist=args.weight_dist, sigma_w=args.sigma_w,
                        bias_dist=args.bias_dist, sigma_b=args.sigma_b,
                        fan_in_mode=args.fan_in_mode, seed=args.seed)
    arch = sto.sampled_architecture(args.family, args.d, args.width, args.depth, kappa=args.kappa,
                                    rank=args.rank, group_size=args.group_size)
    width, per_unit = arch.dims[1], arch.kappas[0][0]
    rows = []
    if args.by_depth:
        ests = sto.mc_knot_density_by_depth(arch, init, trials=args.trials)
        for depth, est in enumerate(ests, start=1):
            rows.append(sto.mc_table_row(args.family, width, depth,
                                         per_unit, init, est))
    else:
        est = sto.mc_knot_density(arch, init, trials=args.trials)
        rows.append(sto.mc_table_row(args.family, width, args.depth,
                                     per_unit, init, est))
    csv = sto.mc_table_csv(rows)
    for row in rows:
        msg = (f"family={row['family']} W={row['W']} L={row['L']} "
               f"trials={row['trials']} mean={row['mean']!r} SE={row['SE']!r}")
        if row["bound"] is not None:
            msg += f" bound={row['bound']!r} pass={'true' if row['pass'] else 'false'}"
        print(msg)
    if args.out is None:
        args.out = "."
    _emit(args, "mc_table.csv", csv)
    _write_config(args, "mc")
    return 0


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def cmd_construct(args) -> int:
    flags = {"sawtooth": args.sawtooth is not None, "sawtooth_net": args.sawtooth_net,
             "gp": args.gp, "extremal_sum": args.extremal_sum}
    chosen = [name for name, on in flags.items() if on]
    if len(chosen) != 1:
        raise ValidationError("construct needs exactly one of --sawtooth, "
                              "--sawtooth-net, --gp, --extremal-sum")
    kind = chosen[0]
    if kind == "sawtooth":
        p = args.sawtooth
        net = NetworkSpec(1, (Pointwise((cons.sawtooth(p),)),),
                          metadata=f"sawtooth_{p}")
        name = f"saw{p}.json"
        print(f"sawtooth p={p}: expected cell_count = {p}")
    elif kind == "sawtooth_net":
        if args.dims is None or args.kappa is None:
            raise ValidationError("--sawtooth-net needs --dims and --kappa")
        dims = args.dims
        kappas = tuple((args.kappa,) * dims[l + 1] for l in range(len(dims) - 1))
        arch = bnd.ArchitectureDescriptor(dims, kappas)
        net = cons.sawtooth_network(arch)
        alpha = bnd.alpha_lower_constructive(arch)
        upper = bnd.compositional_upper(arch)
        name = "sawtooth_net.json"
        print(f"sawtooth network dims={','.join(map(str, dims))} "
              f"kappa={args.kappa}: expected cell_count = {alpha} "
              f"(upper bound {upper})")
    elif kind == "gp":
        if args.d is None or args.ns is None:
            raise ValidationError("--gp needs --d and --ns")
        net = cons.general_position_partitions(args.d, args.ns, seed=args.seed)
        name = "gp_net.json"
        print(f"general-position net d={args.d} ns={','.join(map(str, args.ns))}: "
              f"expected cell_count = {bnd.beta(args.d, args.ns)}")
    else:
        if args.d is None or args.ns is None:
            raise ValidationError("--extremal-sum needs --d and --ns")
        net = cons.extremal_sum_network(args.d, args.ns, seed=args.seed)
        name = "extremal_sum.json"
        print(f"extremal sum net d={args.d} ns={','.join(map(str, args.ns))}: "
              f"expected distinct_piece_count = {bnd.beta(args.d, args.ns)}")
    if args.out is None:
        args.out = "."
    if args.name:
        name = args.name
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, name)
    save_network(net, path)
    print(f"wrote {path}")
    _write_config(args, "construct")
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------

@functools.cache  # built on first use, once per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cpwl",
        description="Exact linear-region and knot analysis of CPWL networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=None,
                        help="output directory (default: print-only for "
                             "reports; current directory for file products)")

    p = sub.add_parser("bound", parents=[common],
                       help="closed-form region bounds for architectures")
    p.add_argument("--beta", nargs=2, metavar=("D", "NS"),
                   help="arrangement bound for D inputs and unit region "
                        "counts NS, e.g. --beta 2 3,3")
    p.add_argument("--family", help="architecture family, e.g. relu, maxout, "
                                    "groupsort, ridge, sort, pwlu_layer")
    p.add_argument("--dims", type=_int_list, help="layer dimensions d0,d1,...")
    p.add_argument("--kappa", type=int, help="regions per scalar unit")
    p.add_argument("--rank", type=int, help="maxout rank")
    p.add_argument("--group-size", type=int, help="sorting group size")
    p.add_argument("--grid-m", type=int, help="2D lookup unit grid size M")
    p.add_argument("--d", type=int, help="input dimension (scalar families)")
    p.add_argument("--n-units", type=int, help="unit count (scalar families)")
    p.add_argument("--out-dim", type=int, help="pooling output dimension")
    p.add_argument("--pool-size", type=int, help="pooling window size")
    p.add_argument("--cor36", type=_int_list, metavar="DIMS",
                   help="uniform-width envelope audit for d_in,width,d_out "
                        "(with --depth and --kappa): lower vs upper forms")
    p.add_argument("--depth", type=int, help="number of stacked blocks")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("audit", parents=[common],
                       help="cross-check lower vs upper bounds; flags "
                            "inconsistencies as AUDIT lines")
    p.add_argument("--dims", type=_int_list, default=None,
                   help="d_in,width,d_out (default 1,4,1)")
    p.add_argument("--depth", type=int, default=None, help="blocks (default 3)")
    p.add_argument("--kappa", type=int, default=None,
                   help="regions per unit (default 2)")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("count", parents=[common],
                       help="exactly enumerate the linear regions of a network")
    p.add_argument("--net", required=True, help="network JSON file")
    p.add_argument("--box", default=None,
                   help="domain box lo,hi or per-coordinate bounds "
                        "(default: unbounded)")
    p.add_argument("--budget", type=int, default=geo.CELL_BUDGET, help="max cells")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("render", parents=[common],
                       help="SVG region map of a 2-input network")
    p.add_argument("--net", required=True, help="network JSON file")
    p.add_argument("--box", required=True, help="view box lo,hi")
    p.add_argument("--budget", type=int, default=geo.CELL_BUDGET, help="max cells")
    p.add_argument("--name", default=None, help="SVG file name")
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("knots", parents=[common],
                       help="exact knots of a network along a polygonal path")
    p.add_argument("--net", required=True, help="network JSON file")
    p.add_argument("--path", required=True, help="path JSON file")
    p.add_argument("--prefixes", action="store_true",
                   help="also report per-depth-prefix knot counts")
    p.set_defaults(func=cmd_knots)

    p = sub.add_parser("mc", parents=[common],
                       help="Monte Carlo knot density of random networks "
                            "vs closed-form bounds")
    p.add_argument("--family", required=True,
                   help="relu, leaky, abs, deepspline, maxout, or groupsort")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--sigma-w", type=float, default=1.0)
    p.add_argument("--sigma-b", type=float, default=1.0)
    p.add_argument("--weight-dist", default="normal",
                   choices=("normal", "uniform", "orthogonal"))
    p.add_argument("--bias-dist", default="normal", choices=("normal", "uniform"))
    p.add_argument("--fan-in-mode", default=None, choices=("2/fan-in",),
                   help="per-layer weight std sqrt(2/fan_in)")
    p.add_argument("--d", type=int, default=4, help="input dimension")
    p.add_argument("--width", type=int, default=None,
                   help="units per layer (default 1; input dim for groupsort)")
    p.add_argument("--depth", type=int, default=1, help="activation layers")
    p.add_argument("--kappa", type=int, default=None, help="deepspline regions")
    p.add_argument("--rank", type=int, default=None, help="maxout rank")
    p.add_argument("--group-size", type=int, default=2)
    p.add_argument("--by-depth", action="store_true",
                   help="one CSV row per depth prefix 1..depth")
    p.add_argument("--seed", type=int, default=0, help="master RNG seed")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("construct", parents=[common],
                       help="write extremal example networks as JSON")
    p.add_argument("--sawtooth", type=int, default=None, metavar="P",
                   help="p-tooth sawtooth unit (p cells)")
    p.add_argument("--sawtooth-net", action="store_true",
                   help="deep sawtooth network attaining the constructive "
                        "lower bound (needs --dims and --kappa)")
    p.add_argument("--gp", action="store_true",
                   help="general-position one-layer net attaining the "
                        "arrangement bound (needs --d and --ns)")
    p.add_argument("--extremal-sum", action="store_true",
                   help="sum of units with base-m slopes attaining the "
                        "distinct-piece bound (needs --d and --ns)")
    p.add_argument("--dims", type=_int_list, default=None)
    p.add_argument("--kappa", type=int, default=None)
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--ns", type=_int_list, default=None)
    p.add_argument("--name", default=None, help="output file name")
    p.add_argument("--seed", type=int, default=0,
                   help="RNG seed of --gp and --extremal-sum")
    p.set_defaults(func=cmd_construct)

    return parser


def _join_box_args(argv: list) -> list:
    """``--box -1,1`` → ``--box=-1,1`` so argparse doesn't read the negative
    bound as a flag."""
    out, i = [], 0
    while i < len(argv):
        if argv[i] == "--box" and i + 1 < len(argv):
            out.append("--box=" + argv[i + 1])
            i += 2
        else:
            out.append(argv[i])
            i += 1
    return out


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_join_box_args(argv))
    try:
        return args.func(args)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except (OSError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
