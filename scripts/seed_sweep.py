#!/usr/bin/env python3
"""Run the pipeline once per seed, in memory, and print one CSV to stdout.

One row per seed: the run seed, the blend coefficient alpha, the number of
trees the GBDT kept, the number of epochs the network kept, and each model's
validation and test AUC, every value as its repr. The row for seed s holds
the values of `manifest.json` of `tabfusion run --config C --seed s` with the
same `--set` options. Nothing is written to disk; a failure exits as
`tabfusion run` would, with its `error [stage]` line.

    python scripts/seed_sweep.py --config configs/stroke.conf --seeds 7,11,23,42,99 [--set KEY=VALUE ...]
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from tabfusion import cli


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--config", required=True, type=Path, help="flat key=value config file")
    parser.add_argument("--seeds", required=True, help="comma-separated run seeds, e.g. 7,11,23,42,99")
    parser.add_argument("--set", action="append", default=[], metavar="KEY=VALUE", help="override any config option")
    args = parser.parse_args(argv)
    try:  # every seed's config is read before the first run starts
        configs = [cli.load_run_config(args.config, args.set, seed=seed.strip()) for seed in args.seeds.split(",")]
        manifests = [cli.run_pipeline(cfg)["manifest.json"] for cfg in configs]
    except cli.StageError as exc:
        print(exc, file=sys.stderr)
        return exc.code
    columns = [(model, part) for model in manifests[0]["test_auc"] for part in ("validation", "test")]
    header = ["seed", "alpha", "GBDT_trees", "xDeepFM_epochs"] + [f"{model}_{part}_auc" for model, part in columns]
    lines = [",".join(header)]
    for manifest in manifests:
        values = [manifest["seeds"]["split"], manifest["alpha"], manifest["gbdt_trees"], manifest["xdfm_epochs"]]
        values += [manifest[f"{part}_auc"][model] for model, part in columns]
        lines.append(",".join(map(repr, values)))
    sys.stdout.write("\n".join(lines) + "\n")
    return cli.EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
