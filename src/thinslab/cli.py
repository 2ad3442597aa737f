"""Command line entry point.

``thinslab run --scenario NAME [options]`` executes a canned experiment,
``thinslab list`` prints the scenario table, ``thinslab check`` runs the
quick self-test suite.  Config resolution: scenario defaults, then
``--config FILE`` (flat ``key = value`` lines), then individual flags and
``--set key=value`` pairs, last writer wins.
"""

from __future__ import annotations

import argparse
import sys

from . import harness
from .harness import ConfigError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thinslab",
        description="spectral thin-slab propagation experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run one scenario and write artifacts")
    run_p.add_argument("--scenario", required=True, help="scenario name (see 'list')")
    run_p.add_argument("--config", help="flat key = value config file")
    run_p.add_argument("--output-dir", dest="output_dir", help="artifact directory")
    run_p.add_argument("--grid-points", dest="n_points", type=int)
    run_p.add_argument("--s", dest="s", type=float, help="Sobolev index")
    run_p.add_argument("--depth", dest="Z", type=float, help="total depth")
    run_p.add_argument("--Ns", dest="Ns", help="comma-separated slab counts")
    run_p.add_argument("--variant", choices=("frozen", "averaged"))
    run_p.add_argument("--reference", help="exact | finestep | auto")
    run_p.add_argument("--delta-max", dest="delta_max", type=float)
    run_p.add_argument("--seed", type=int)
    run_p.add_argument("--set", dest="extra", action="append", default=[],
                       metavar="KEY=VALUE", help="override any config key")

    sub.add_parser("list", help="list available scenarios")

    check_p = sub.add_parser("check", help="run the quick self-test suite")
    check_p.add_argument("--output-dir", dest="output_dir", default="thinslab-out/check")
    check_p.add_argument("--seed", type=int, default=0)
    return parser


def _overrides_from_args(args) -> dict:
    keys = ("output_dir", "n_points", "s", "Z", "Ns", "variant", "reference",
            "delta_max", "seed")
    overrides = {}
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            overrides[key] = value
    for pair in args.extra:
        if "=" not in pair:
            raise ConfigError(f"--set expects KEY=VALUE, got {pair!r}")
        key, _, value = pair.partition("=")
        overrides[key.strip()] = value.strip()
    return overrides


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            sys.stdout.write(harness.list_scenarios())
            return harness.EXIT_OK
        if args.command == "check":
            code = harness.quick_check(args.output_dir, seed=args.seed)
            state = "passed" if code == harness.EXIT_OK else "FAILED"
            print(f"self-check {state}; report in {args.output_dir}/properties.xml")
            return code
        file_map = harness.parse_config_file(args.config) if args.config else {}
        cfg = harness.resolve_config(args.scenario, file_map, _overrides_from_args(args))
        code = harness.run(cfg)
        label = {harness.EXIT_OK: "completed",
                 harness.EXIT_GATE: "FAILED (acceptance gate)",
                 harness.EXIT_CONFIG: "FAILED (configuration)"}[code]
        print(f"scenario {cfg.scenario} {label}; artifacts in {cfg.output_dir}")
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return harness.EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
