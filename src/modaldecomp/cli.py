"""Command-line surface: generate models and samples, decompose, score, attribute.

Exit codes: 0 success, 2 validation error (bad flags, malformed files,
impossible configurations, an input too large to allocate), 3
numerical-contract violation (non-finite activations or attributions, or an
equality residual above tolerance).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .decompose import (
    EQUALITY_TOL,
    DecompositionError,
    SplitConfig,
    component_labels,
    decompose,
    equality_residuals,
)
from .heatmap import NORMALIZATIONS, as_2d, write_component_maps
from .metrics import MetricConfig, format_table, report_to_json, variant_matrix
from .model import load_model, save_model
from .shapley import hybrid_shapley, shapley
from .synth import GenSpec, gen_sample_set, gen_synthetic_model, load_samples, save_samples

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_CONTRACT = 3


def _kinds_list(raw: str) -> tuple[str, ...]:
    if raw.strip().lower() in ("none", ""):
        return ()
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


def _add_split_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bn-rule", default="identity", choices=["identity", "uniform"])
    p.add_argument("--ln-rule", default="ratio", choices=["ratio", "identity", "uniform"])
    p.add_argument("--act-rule", default="none", choices=["none", "sum", "ratio"])
    p.add_argument("--epsilon", type=float, default=1e-6)


def _split_config(args) -> SplitConfig:
    return SplitConfig(args.bn_rule, args.ln_rule, args.act_rule, args.epsilon)


def _load_model_file(path: str):
    return load_model(Path(path).read_bytes())


def _load_samples_file(path: str):
    return load_samples(Path(path).read_bytes())


def _parse_perturb(raw: str, modalities: int) -> tuple[int, ...]:
    names = {f"m{i}": i for i in range(modalities)}
    out = []
    for tok in raw.split("+"):
        tok = tok.strip()
        if tok in names:
            out.append(names[tok])
        elif tok.isdigit() and int(tok) < modalities:
            out.append(int(tok))
        else:
            raise ValueError(f"unknown modality '{tok}' (model has {modalities})")
    return tuple(out)


def cmd_gen_model(args) -> int:
    spec = GenSpec(
        modalities=args.modalities,
        grid=args.grid,
        channels=args.channels,
        depth=args.depth,
        norms=_kinds_list(args.norm),
        activations=_kinds_list(args.activation),
        include_attention=args.attention,
    )
    model = gen_synthetic_model(args.seed, spec)
    Path(args.out).write_bytes(save_model(model))
    print(f"wrote {args.out} ({len(model.layers)} layers, {model.modalities} modalities)")
    return EXIT_OK


def cmd_gen_samples(args) -> int:
    model = _load_model_file(args.model)
    samples = gen_sample_set(args.seed, model, args.count)
    Path(args.out).write_bytes(save_samples(samples))
    print(f"wrote {args.out} ({samples.n} samples)")
    return EXIT_OK


def cmd_decompose(args) -> int:
    model = _load_model_file(args.model)
    samples = _load_samples_file(args.samples)
    if not 0 <= args.index < samples.n:
        raise ValueError(f"sample index {args.index} out of range (n={samples.n})")
    cfg = _split_config(args)
    result = decompose(model, samples[args.index], cfg)
    residuals = equality_residuals(model, result.components, result.state)
    worst = max(residuals, key=residuals.get)
    doc = {
        "version": 1,
        "index": args.index,
        "config": asdict(cfg),
        "max_equality_residual": residuals[worst],
        "worst_layer": worst,
        "residuals": residuals,
        "components": result.output.to_dict(),
    }
    Path(args.out).write_bytes(json.dumps(doc, separators=(",", ":")).encode("utf-8"))
    if args.heatmaps:
        labels = component_labels(model.modalities)
        comps = {lab: as_2d(result.output.parts[i]) for i, lab in enumerate(labels)}
        write_component_maps(args.heatmaps, comps, args.encoding, args.norm)
    print(f"wrote {args.out} (max equality residual {residuals[worst]:.3e})")
    if residuals[worst] > EQUALITY_TOL:
        print(
            f"error: equality residual {residuals[worst]:.3e} above {EQUALITY_TOL:.0e} "
            f"in layer '{worst}'",
            file=sys.stderr,
        )
        return EXIT_CONTRACT
    return EXIT_OK


def cmd_metrics(args) -> int:
    model = _load_model_file(args.model)
    samples = _load_samples_file(args.samples)
    perturbed = None
    if args.perturb:
        perturbed = tuple(_parse_perturb(raw, model.modalities) for raw in args.perturb)
    mcfg = MetricConfig(
        stride=args.stride,
        offset_count=args.offsets,
        perturbed=perturbed,
        positive_parts=args.positive_parts,
    )
    variants = [SplitConfig.parse(lab, args.epsilon) for lab in _kinds_list(args.variants)]
    reports = variant_matrix(model, samples, variants, mcfg)
    Path(args.out).write_bytes(report_to_json(reports))
    print(format_table(reports))
    return EXIT_OK


def cmd_shapley(args) -> int:
    model = _load_model_file(args.model)
    samples = _load_samples_file(args.samples)
    if not 0 <= args.index < samples.n:
        raise ValueError(f"sample index {args.index} out of range (n={samples.n})")
    if args.hybrid:
        attr = hybrid_shapley(model, samples[args.index], _split_config(args), args.redistribution)
    else:
        attr = shapley(model, samples[args.index])
    residual = attr.efficiency_residual()
    if not math.isfinite(residual):  # the residual is nan or inf if any attribution is
        raise DecompositionError(f"Shapley attribution of sample {args.index} is not finite")
    doc = {"version": 1, "index": args.index, "hybrid": bool(args.hybrid)}
    if args.hybrid:
        doc["redistribution"] = args.redistribution
    doc.update(attr.to_dict())
    Path(args.out).write_bytes(json.dumps(doc, separators=(",", ":")).encode("utf-8"))
    print(
        f"wrote {args.out} ({attr.n_forwards} coalition evaluations, "
        f"efficiency residual {residual:.3e})"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modaldecomp",
        description="Per-modality decomposition of fusion-network predictions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-model", help="generate a seeded synthetic fusion model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--modalities", type=int, default=2)
    p.add_argument("--depth", type=int, default=3)
    p.add_argument("--grid", type=int, default=32)
    p.add_argument("--channels", type=int, default=8)
    p.add_argument("--norm", default="batchnorm,layernorm,instancenorm")
    p.add_argument("--activation", default="relu,gelu")
    p.add_argument("--attention", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_model)

    p = sub.add_parser("gen-samples", help="generate a seeded sample set for a model")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", required=True)
    p.add_argument("--count", type=int, default=20)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen_samples)

    p = sub.add_parser("decompose", help="decompose one sample's prediction")
    p.add_argument("--model", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--index", type=int, default=0)
    _add_split_flags(p)
    p.add_argument("--out", required=True)
    p.add_argument("--heatmaps", help="directory for per-component map files")
    p.add_argument("--norm", default="max-positive", choices=list(NORMALIZATIONS))
    p.add_argument("--encoding", default="positive-pgm", choices=["positive-pgm", "signed-csv"])
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("metrics", help="run the modality-replacement protocol")
    p.add_argument("--model", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument(
        "--perturb",
        action="append",
        help="modality (m0) or joint set (m0+m1); repeatable; default: each modality",
    )
    p.add_argument("--stride", type=int, default=None)
    p.add_argument("--offsets", type=int, default=4)
    p.add_argument("--variants", default="identity-ratio")
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--positive-parts", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("shapley", help="coalition attribution for one sample")
    p.add_argument("--model", required=True)
    p.add_argument("--samples", required=True)
    p.add_argument("--index", type=int, default=0)
    p.add_argument("--hybrid", action="store_true", help="redistribute the decomposition's bias component")
    p.add_argument("--redistribution", default="shapley", choices=["shapley", "proportional"])
    _add_split_flags(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_shapley)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(all="ignore"):  # a non-finite value shows as the error line alone
            return args.fn(args)
    except DecompositionError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONTRACT
    except (ValueError, OSError, MemoryError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
