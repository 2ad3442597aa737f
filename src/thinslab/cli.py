"""Command line entry point.

``thinslab run --scenario NAME [options]`` executes a canned experiment,
``thinslab list`` prints the scenario table, ``thinslab check`` runs the
quick self-test suite.  Config resolution: scenario defaults, then
``--config FILE`` (flat ``key = value`` lines), then individual flags and
``--set key=value`` pairs, last writer wins.  A rejected configuration
still leaves a config-error manifest when its output directory is known.
``run`` and ``check`` both print one result line, ``<name> <label>;
artifacts in <dir>``, and return the exit code of the recorded run.
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


_FLAG_KEYS = ("output_dir", "n_points", "s", "Z", "Ns", "variant", "reference",
              "delta_max", "seed")


def _set_pairs(extra) -> dict:
    out = {}
    for pair in extra:
        if "=" not in pair:
            raise ConfigError(f"--set expects KEY=VALUE, got {pair!r}")
        key, _, value = pair.partition("=")
        out[key.strip()] = value.strip()
    return out


def _resolve(args):
    """Resolve the run's config; a rejected one leaves a config-error manifest.

    The flags cannot fail to parse, so an explicit ``--output-dir`` is known
    even when a ``--set`` pair or the config file is bad.
    """
    overrides = {key: getattr(args, key) for key in _FLAG_KEYS
                 if getattr(args, key, None) is not None}
    file_map = {}
    try:
        overrides.update(_set_pairs(args.extra))
        if args.config:
            file_map = harness.parse_config_file(args.config)
        return harness.resolve_config(args.scenario, file_map, overrides)
    except ConfigError as exc:
        harness.write_config_error(args.scenario, (file_map, overrides), str(exc))
        raise


_LABELS = {harness.EXIT_OK: "completed",
           harness.EXIT_GATE: "FAILED (acceptance gate)",
           harness.EXIT_CONFIG: "FAILED (configuration)"}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list":
            sys.stdout.write(harness.list_scenarios())
            return harness.EXIT_OK
        if args.command == "check":
            name, out = "self-check", args.output_dir
            code = harness.quick_check(out, seed=args.seed)
        else:
            cfg = _resolve(args)
            name, out = f"scenario {cfg.scenario}", cfg.output_dir
            code = harness.run(cfg)
        print(f"{name} {_LABELS[code]}; artifacts in {out}")
        return code
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return harness.EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
