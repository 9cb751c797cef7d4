"""Command line interface: run / compare / sample."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError, InvalidInputError, NumericalAbort
from .harness import compare, parse_config, run_experiment, write_particles
from .targets import make_target

EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERIC = 4


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="msvgd",
                                 description="Particle inference with matrix-valued Stein kernels")
    sub = ap.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute one configured run")
    run_p.add_argument("config", help="path to a JSON run config")

    cmp_p = sub.add_parser("compare", help="run several configs and tabulate metrics")
    cmp_p.add_argument("configs", nargs="+", help="paths to JSON run configs")

    smp_p = sub.add_parser("sample", help="draw from a target's reference sampler")
    smp_p.add_argument("target", help="target kind (e.g. star_mixture)")
    smp_p.add_argument("n", type=int)
    smp_p.add_argument("seed", type=int)

    for p in (run_p, cmp_p):
        p.add_argument("--seed", type=int, default=None, help="seed override")
    for p in (run_p, cmp_p, smp_p):
        p.add_argument("--out", default=None, help="output directory override")
        p.add_argument("--quiet", action="store_true", help="suppress progress output")
    return ap


def _load_config(path: str, seed_override, out_override=None):
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    if seed_override is not None:
        raw["seed"] = seed_override
    if out_override is not None:
        raw["out_dir"] = out_override
    return parse_config(raw)


def _summary_line(record) -> str:
    last = record.metric_rows[-1] if record.metric_rows else {}
    if "mmd" in last:
        tail = f"mmd_sq={last['mmd']['value']:.6g}"
    elif "predictive" in last:
        tail = f"accuracy={last['predictive']['accuracy']:.4f}"
    else:
        tail = "no metrics"
    cfg = record.config
    return (f"{cfg['method']} on {cfg['target']['kind']}: "
            f"{cfg['iters']} iterations, {tail}")


def main(argv=None) -> int:
    ns = _build_parser().parse_args(argv)
    try:
        if ns.command == "run":
            cfg = _load_config(ns.config, ns.seed, ns.out)
            record = run_experiment(cfg)
            if not ns.quiet:
                print(_summary_line(record))
        elif ns.command == "compare":
            cfgs = [_load_config(p, ns.seed) for p in ns.configs]
            out = ns.out if ns.out is not None else cfgs[0].out_dir
            result = compare(cfgs, out_dir=out)
            if not ns.quiet:
                for method in result["methods"]:
                    print(_summary_line(result["records"][method]))
                print(f"comparison table: {Path(out) / 'comparison.csv'}")
        else:  # sample
            model = make_target(ns.target)
            draws = model.reference_sample(ns.n, ns.seed)
            out = Path(ns.out if ns.out is not None else ".")
            out.mkdir(parents=True, exist_ok=True)
            path = out / f"sample_{ns.target}_n{ns.n}_seed{ns.seed}.csv"
            write_particles(path, 0, draws)
            if not ns.quiet:
                print(f"wrote {draws.shape[0]} draws to {path}")
    except json.JSONDecodeError as exc:
        print(f"config: invalid JSON: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConfigError as exc:
        print(f"config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except InvalidInputError as exc:
        print(f"input: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalAbort as exc:
        print(f"numeric: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"io: {exc}", file=sys.stderr)
        return EXIT_IO
    return 0


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
