"""Command-line entry point.

Subcommands ``noflow``, ``ethier``, ``dtsweep``, ``stokes-mms`` run the
packaged experiments; ``mesh-info`` prints mesh statistics, with the
Betti numbers (components, handles, cavities) that decide which
boundary pairings a mesh can carry.  Each
experiment subcommand reads an optional ``--config <path>`` file of
flat ``key = value`` lines and applies ``--set key=value`` overrides on
top (repeatable, highest precedence).  Every subcommand turns bad input,
and a solver failure (``linalg.SolverError``: a singular system, no
steady state), into ``error: ...`` and a non-zero exit status.
"""
from __future__ import annotations

import argparse
import sys

from .experiments import (
    KINDS,
    parse_config,
    parse_number,
    run_experiment,
    spec_from_options,
)
from .linalg import SolverError
from .mesh import build_box_mesh, euler_characteristic, mesh_size, read_tetmesh


def _collect_options(args):
    options = {}
    if args.config is not None:
        with open(args.config) as fh:
            options.update(parse_config(fh.read()))
    for item in args.set or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        options[key.strip()] = value.strip()
    return options


def _add_common(parser):
    parser.add_argument("--config", help="path to a key = value config file")
    parser.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override one config option (repeatable)",
    )


def _run_kind(kind, args):
    options = _collect_options(args)
    spec = spec_from_options(kind, options)
    report = run_experiment(spec)
    summary = f"{spec.outdir}/{kind}_summary.txt"
    with open(summary) as fh:
        sys.stdout.write(fh.read())
    return report


def _mesh_info(args):
    options = _collect_options(args)
    unknown = sorted(options.keys() - {"mesh", "n"})
    if unknown:
        raise ValueError(f"unknown option {unknown[0]!r}")
    if "mesh" in options:
        mesh = read_tetmesh(options["mesh"])
        source = options["mesh"]
    else:
        n = parse_number("n", options.get("n", "2"), int)
        mesh = build_box_mesh(n, n, n)
        source = f"unit box, n={n}"
    print(f"mesh: {source}")
    print(f"vertices: {mesh.n_vertices}")
    print(f"edges:    {mesh.n_edges}")
    print(f"faces:    {mesh.n_faces}")
    print(f"tets:     {mesh.n_tets}")
    print(f"boundary faces: {len(mesh.boundary_faces)}")
    print(f"mesh size h: {mesh_size(mesh):.6g}")
    print(f"total volume: {mesh.tet_volumes.sum():.6g}")
    print(f"euler characteristic: {euler_characteristic(mesh)}")
    print("betti numbers (b0, b1, b2): {}, {}, {}".format(*mesh.betti_numbers))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="vvpflow",
        description="structure-preserving vorticity-velocity-pressure flow solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "noflow": "gradient forcing must yield zero velocity",
        "ethier": "convergence sweep against the exact decaying flow",
        "dtsweep": "one-step error across a list of time steps",
        "stokes-mms": "steady manufactured-solution convergence sweep",
    }
    for kind in KINDS:
        p = sub.add_parser(kind, help=helps[kind])
        _add_common(p)
        p.set_defaults(func=lambda args, kind=kind: _run_kind(kind, args))
    p = sub.add_parser("mesh-info", help="print mesh statistics")
    _add_common(p)
    p.set_defaults(func=_mesh_info)
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (OSError, ValueError, SolverError) as exc:
        raise SystemExit(f"error: {exc}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
