"""Command-line entry point.

    skewprod run CONFIG.json [--seed N] [--workers N] [--out DIR] [--strict]
    skewprod presets [--json] [--write-dir DIR]

`run` also accepts a bundled preset name in place of a config path.  Exit
codes: 0 all selected checks pass, 1 acceptance failure, 2 invalid
configuration, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .config import load_config, parse_config
from .errors import ConfigError, SkewprodError
from .presets import PRESETS, catalog_lines, preset_config
from .runner import run_experiment, write_results


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="skewprod",
                                description="transfer-operator cocycles over mixing "
                                            "Markov bases: limit-theorem verification")
    sub = p.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one experiment config (path or preset name)")
    runp.add_argument("config", help="JSON config path or bundled preset name")
    runp.add_argument("--seed", type=int, default=None, help="override the config seed")
    runp.add_argument("--workers", type=int, default=1, help="parallel worker count")
    runp.add_argument("--out", default=None, help="output directory override")
    runp.add_argument("--strict", action="store_true", help="warnings are fatal")
    prep = sub.add_parser("presets", help="list the bundled instance presets")
    prep.add_argument("--json", action="store_true", help="emit the catalog as JSON")
    prep.add_argument("--write-dir", default=None,
                      help="materialize every preset config into this directory")
    return p


def cmd_run(args) -> int:
    try:
        if os.path.isfile(args.config):
            cfg = load_config(args.config)
        elif args.config in PRESETS:
            cfg = parse_config(preset_config(args.config), name_hint=args.config)
        else:
            raise ConfigError(f"config: no such file or preset: {args.config!r}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out or cfg.output_dir
    try:
        result = run_experiment(cfg, workers=max(1, args.workers),
                                seed_override=args.seed, strict=args.strict)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SkewprodError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    path = write_results(out_dir, result)
    v = result.record["verdicts"]
    print(f"{cfg.name}: experiment={cfg.experiment} outcome={v['outcome']} "
          f"expected={cfg.expect} -> {'PASS' if v['passed'] else 'FAIL'}")
    for w in result.warnings:
        print(f"  warning: {w}")
    print(f"  results: {path}")
    return result.exit_code


def cmd_presets(args) -> int:
    if args.json:
        print(json.dumps(PRESETS, indent=2, sort_keys=True))
    else:
        for line in catalog_lines():
            print(line)
    if args.write_dir:
        os.makedirs(args.write_dir, exist_ok=True)
        for name in PRESETS:
            path = os.path.join(args.write_dir, f"{name}.json")
            with open(path, "w") as fh:
                json.dump(preset_config(name), fh, indent=2, sort_keys=True)
                fh.write("\n")
        print(f"wrote {len(PRESETS)} preset configs to {args.write_dir}")
    # every preset must validate
    for name in PRESETS:
        parse_config(preset_config(name), name_hint=name)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return cmd_run(args)
    if args.command == "presets":
        return cmd_presets(args)
    return 2


if __name__ == "__main__":
    sys.exit(main())
