"""Command-line entry point: screen / search / verify / iso subcommands.

Machine-readable outputs are canonical JSON (sorted keys, two-space indent,
trailing newline) and contain no timestamps, so identical inputs reproduce
byte-identical files; the run manifest written next to them carries digests,
parameters, and wall time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

from . import __version__
from .design import (
    design_to_dict,
    from_base_block,
    is_block_transitive,
    is_flag_transitive,
    lambda_of,
    load_design,
)
from .iso import iso_classes
from .numtheory import FactorizationError
from .permgroup import CapExceededError, CycleFormatError, DEFAULT_CAP, GroupTable, set_stabilizer
from .screen import FAMILIES, NonDivisibleError, ScreenError, case_screen, survivors
from .search import CandidateExplosionError, SearchJob, full_sweep, run as run_search

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_CAP = 3
EXIT_INTERNAL = 4

CAP_ENV = "DESIGNFORGE_CAP"


def _cap_from_env() -> int:
    raw = os.environ.get(CAP_ENV)
    if raw is None:
        return DEFAULT_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{CAP_ENV} must be an integer, got {raw!r}") from None


def _dump_json(path: Path, doc: object) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _write_outputs(
    out_dir: Path,
    subcommand: str,
    inputs: list[Path],
    params: dict,
    docs: dict[str, object],
    started: float,
) -> list[Path]:
    """Write each {file name: document} entry, then the manifest that lists
    them in that order; return the written paths, manifest excluded."""
    paths = [out_dir / name for name in docs]
    for path, doc in zip(paths, docs.values()):
        _dump_json(path, doc)
    manifest = {
        "subcommand": subcommand,
        "tool_version": __version__,
        "inputs": {str(p): hashlib.sha256(p.read_bytes()).hexdigest() for p in inputs},
        "parameters": params,
        "outputs": [str(p) for p in paths],
        "wall_time_s": round(time.time() - started, 3),
    }
    _dump_json(out_dir / "manifest.json", manifest)
    return paths


def _parse_points(text: str) -> list[int]:
    pts = [int(tok) for tok in text.replace(" ", "").split(",") if tok]
    if not pts or min(pts) < 1:
        raise ValueError("points are 1-based and comma-separated")
    return [p - 1 for p in pts]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_screen(args: argparse.Namespace) -> int:
    started = time.time()
    fams = None if args.family == "all" else _family_selector(args.family)
    reports = case_screen(fams, n_filter=args.n, q_filter=args.q)
    surv = survivors(reports)
    by_family: dict[str, int] = {}
    for r in reports:
        by_family[r.case.family] = by_family.get(r.case.family, 0) + 1
    print(f"screened {len(reports)} cases over {len(by_family)} families")
    for fam in sorted(by_family):
        print(f"  {fam:4} {by_family[fam]:5d} cases")
    print(f"survivors: {len(surv)}")
    for r in surv:
        print(
            f"  {r.case.label():30} v = {r.v} = {r.v_factorization}  k = {r.candidate_k}"
        )
    if args.out:
        doc = {
            "survivors": [r.to_dict() for r in surv],
            "reports": [r.to_dict() for r in reports],
            "tool_version": __version__,
        }
        params = {"family": args.family, "n": args.n, "q": args.q}
        [path] = _write_outputs(
            Path(args.out), "screen", [], params, {"screen_report.json": doc}, started
        )
        print(f"wrote {path}")
    return EXIT_OK


def _family_selector(name: str) -> list[str]:
    if name == "C8":
        return ["C8s", "C8o", "C8u"]
    if name in FAMILIES:
        return [name]
    raise ScreenError(f"unknown family {name!r}; choose from all, C8, {', '.join(FAMILIES)}")


def _cmd_search(args: argparse.Namespace) -> int:
    started = time.time()
    gens_path = Path(args.gens)
    group = GroupTable.from_file(gens_path, cap=_cap_from_env())
    k = args.k
    if args.all:
        results = full_sweep(group, k)
    else:
        job = SearchJob(group, k, args.lam)
        if k % args.lam:
            print(f"error: lambda = {args.lam} does not divide k = {k}", file=sys.stderr)
            return EXIT_PRECONDITION
        results = {args.lam: run_search(job)}

    out_dir = Path(args.out_dir) if args.out_dir else None
    docs: dict[str, object] = {}
    summary: dict[str, dict] = {}
    for lam, res in sorted(results.items()):
        summary[str(lam)] = {
            "lambda": lam,
            "block_count": res.job.b,
            "stabilizer_order": res.job.stabilizer_order,
            "iso_classes": res.iso_class_count,
            "distinct_block_sets": res.distinct_block_sets,
            "candidates_tested": res.candidates_tested,
            "flag_transitive": [rec.flag_transitive for rec in res.records],
            "note": res.note,
        }
        print(
            f"lambda={lam}: {res.iso_class_count} isomorphism classes "
            f"({res.distinct_block_sets} distinct block sets, "
            f"{res.candidates_tested} candidates)"
            + (f"  [{res.note}]" if res.note else "")
        )
        if out_dir:
            for idx, rec in enumerate(res.records, start=1):
                meta = {
                    "group_file": gens_path.name,
                    "base_block": (rec.design.array[0] + 1).tolist(),
                    "lambda": lam,
                    "block_transitive": True,
                    "flag_transitive": rec.flag_transitive,
                    "stabilizer_order": rec.stabilizer_order,
                }
                docs[f"design_k{k}_l{lam}_c{idx:03d}.json"] = design_to_dict(rec.design, meta)
    if out_dir:
        summary_doc = {"k": k, "results": summary, "tool_version": __version__}
        docs[f"search_summary_k{k}.json"] = summary_doc
        params = {"k": k, "lambda": args.lam, "all": args.all}
        paths = _write_outputs(out_dir, "search", [gens_path], params, docs, started)
        print(f"wrote {len(paths)} files to {out_dir}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    started = time.time()
    cap = _cap_from_env()
    gens_path = Path(args.gens)
    group = GroupTable.from_file(args.gens, cap=cap)
    if args.design is not None:
        design, meta = load_design(args.design)
        source = f"design file {args.design}"
    else:
        base = _parse_points(args.base_block)
        design = from_base_block(group, base)
        source = f"orbit of base block {args.base_block}"
    if design.v != group.degree:
        print("error: design point count != group degree", file=sys.stderr)
        return EXIT_PRECONDITION
    lams = {t: lambda_of(design, t) for t in (1, 2)}
    block_trans = is_block_transitive(group, design)
    flag_trans = is_flag_transitive(group, design) if block_trans else False
    t = args.t
    lam_t = lams[t] if t in lams else lambda_of(design, t)
    report = {
        "source": source,
        "v": design.v,
        "k": design.k,
        "b": design.b,
        "lambda_1": lams[1],
        "lambda_2": lams[2],
        f"lambda_{t}": lam_t,
        "nontrivial": t < design.k < design.v,
        "block_transitive": block_trans,
        "flag_transitive": flag_trans,
        "block_stabilizer_order": set_stabilizer(group, design.blocks[0]).order,
        "tool_version": __version__,
    }
    certified = lam_t is not None
    print(f"{source}: v={design.v} k={design.k} b={design.b}")
    print(
        f"  t={t}: "
        + (f"certified {t}-({design.v},{design.k},{lam_t}) design" if certified else "NOT a t-design")
    )
    print(f"  block-transitive: {block_trans}   flag-transitive: {flag_trans}")
    if args.out:
        inputs = [gens_path] + ([Path(args.design)] if args.design else [])
        params = {"t": t, "base_block": args.base_block, "design": args.design}
        [path] = _write_outputs(
            Path(args.out), "verify", inputs, params, {"verify_report.json": report}, started
        )
        print(f"wrote {path}")
    return EXIT_OK if certified else EXIT_PRECONDITION


def _cmd_iso(args: argparse.Namespace) -> int:
    started = time.time()
    designs = []
    paths = [Path(p) for p in args.inputs]
    for path in paths:
        design, _ = load_design(path)
        designs.append(design)
    if len({(d.v, d.k) for d in designs}) > 1:
        print("error: designs must share (v, k)", file=sys.stderr)
        return EXIT_PRECONDITION
    classes = iso_classes(designs)
    print(f"{len(designs)} designs fall into {len(classes)} isomorphism classes")
    doc_classes = []
    for idx, cls in enumerate(classes, start=1):
        files = [str(paths[i]) for i in cls]
        print(f"  class {idx}: {len(cls)} design(s): {', '.join(files)}")
        doc_classes.append({"members": files, "representative": files[0]})
    if args.out:
        doc = {"classes": doc_classes, "tool_version": __version__}
        [path] = _write_outputs(Path(args.out), "iso", paths, {}, {"iso_report.json": doc}, started)
        print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="designforge",
        description=(
            "Arithmetic screening and exhaustive construction of block-transitive "
            "2-(k^2,k,lambda) designs with prescribed group actions"
        ),
    )
    parser.add_argument("--version", action="version", version=f"designforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_screen = sub.add_parser("screen", help="screen (family, n, q) parameter cases")
    p_screen.add_argument("--family", default="all")
    p_screen.add_argument("--n", type=int, default=None)
    p_screen.add_argument("--q", type=int, default=None)
    p_screen.add_argument("--out", default=None, help="directory for the JSON report")
    p_screen.set_defaults(func=_cmd_screen)

    p_search = sub.add_parser("search", help="enumerate block-transitive designs")
    p_search.add_argument("--gens", required=True, help="generator file")
    p_search.add_argument("--k", type=int, required=True)
    which = p_search.add_mutually_exclusive_group(required=True)
    which.add_argument("--lambda", dest="lam", type=int, default=None)
    which.add_argument("--all", action="store_true", help="sweep every lambda >= 2 dividing k")
    p_search.add_argument("--out-dir", default=None)
    p_search.set_defaults(func=_cmd_search)

    p_verify = sub.add_parser("verify", help="verify a design or base-block orbit")
    p_verify.add_argument("--gens", required=True)
    source = p_verify.add_mutually_exclusive_group(required=True)
    source.add_argument("--design", default=None)
    source.add_argument("--base-block", default=None, help="1-based comma-separated points")
    p_verify.add_argument("--t", type=int, default=2)
    p_verify.add_argument("--out", default=None)
    p_verify.set_defaults(func=_cmd_verify)

    p_iso = sub.add_parser("iso", help="partition design files into isomorphism classes")
    p_iso.add_argument("--in", dest="inputs", nargs="+", required=True)
    p_iso.add_argument("--out", default=None)
    p_iso.set_defaults(func=_cmd_iso)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CapExceededError, FactorizationError, CandidateExplosionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP
    except NonDivisibleError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (ScreenError, CycleFormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
