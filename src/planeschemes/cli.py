"""Command-line front end.

Subcommands: build (affine scheme summary + canonical scheme file), sweep
(classify every fusion, JSON/CSV report), classify (one partition),
subgroups (orbit report for the named families), verify-paper (the
verification suite).  Exit codes: 0 success, 1 verification or
classification failure (for classify: a record whose error is set), 2 usage
error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

from .affine import (
    SlopePartition,
    build_affine_scheme,
    partition_from_group,
    partitions_iter,
)
from .autsearch import MAX_AUT_POINTS
from .errors import NonCanonicalPartition, PlaneSchemesError, UnsupportedPrime
from .projline import check_prime
from .report import (
    AutCache,
    _atomic_write,
    record_to_dict,
    report_digest,
    run_sweep,
    write_csv_report,
    write_json_report,
)
from .scheme import scheme_to_bytes
from .subgroups import SubgroupSpec, find_subgroup, generator_matrices, named_specs, parse_spec
from .verifypaper import run_checks

SWEEP_PRIMES = (3, 5, 7)


def _prime_arg(value: str) -> int:
    p = int(value)
    try:
        check_prime(p)
    except UnsupportedPrime as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return p


def _jobs_arg(value: str) -> int:
    if int(value) < 1:
        raise argparse.ArgumentTypeError(f"{value} workers: want at least 1")
    return int(value)


def _out_arg(value: str) -> str:
    if os.path.isdir(value):
        raise argparse.ArgumentTypeError(f"{value} is a directory: want a file path")
    return value


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="afs",
        description="Association schemes of Galois affine planes: "
                    "fusions, schurity, classification.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="build the affine scheme and write its file")
    b.add_argument("--p", type=_prime_arg, required=True)
    b.add_argument("--out", type=_out_arg, help="scheme file (default xa_p{p}.afsc)")

    s = sub.add_parser("sweep", help="classify every fusion of one prime")
    s.add_argument("--p", type=_prime_arg, required=True)
    s.add_argument("--out", type=_out_arg, help="report file (default report_p{p}.json)")
    s.add_argument("--format", choices=("json", "csv"), default="json")
    s.add_argument("--jobs", type=_jobs_arg, default=1)
    s.add_argument("--no-cache", action="store_true")

    c = sub.add_parser("classify", help="classify a single slope partition")
    c.add_argument("--p", type=_prime_arg, required=True)
    c.add_argument("--partition", required=True, help="canonical RGS, e.g. 0012")
    c.add_argument("--no-cache", action="store_true")

    g = sub.add_parser("subgroups", help="orbit report for subgroup families")
    g.add_argument("--p", type=_prime_arg, required=True)
    g.add_argument("--spec", required=True,
                   help="Cyclic:d | Dihedral:d | FrobeniusPD:d | A4 | S4 | A5 | all")
    g.add_argument("--json", action="store_true")

    v = sub.add_parser("verify-paper", help="run the verification suite")
    v.add_argument("--level", choices=("quick", "full"), default="quick")
    return top


def cmd_build(args) -> int:
    X = build_affine_scheme(args.p)
    vals = json.dumps(list(X.valencies[1:]), separators=(",", ":"))
    print(f"degree {X.n}, rank {X.rank}, valencies {vals}")
    out = args.out or f"xa_p{args.p}.afsc"
    _atomic_write(out, scheme_to_bytes(X))
    print(f"wrote {out}")
    return 0


def cmd_sweep(args) -> int:
    if args.p not in SWEEP_PRIMES:
        print(f"full sweeps support p in {SWEEP_PRIMES}", file=sys.stderr)
        return 2
    out = args.out or f"report_p{args.p}.{args.format}"
    directory = os.path.dirname(os.path.abspath(out))
    os.makedirs(directory, exist_ok=True)       # an unwritable path fails here, before any work
    tempfile.TemporaryFile(dir=directory).close()
    cache = None if args.no_cache else AutCache()
    start = time.perf_counter()
    records = run_sweep(args.p, partitions_iter(args.p + 1),
                        jobs=args.jobs, cache=cache)
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    if args.format == "json":
        write_json_report(out, records, elapsed_ms, args.jobs)
    else:
        write_csv_report(out, records)
    bad = [r for r in records if r.error is not None]
    print(f"{len(records)} records -> {out} "
          f"(digest {report_digest(records)[:16]}, {elapsed_ms/1000.0:.1f}s)")
    if bad:
        print(f"{len(bad)} records with an error", file=sys.stderr)
        return 1
    return 0


def cmd_classify(args) -> int:
    try:
        P = SlopePartition.from_string(args.partition)
    except NonCanonicalPartition as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if P.n_labels != args.p + 1:
        print(f"error: partition must have {args.p + 1} labels", file=sys.stderr)
        return 2
    if args.p ** 2 > MAX_AUT_POINTS:
        print(f"error: classify supports p^2 <= {MAX_AUT_POINTS} points", file=sys.stderr)
        return 2
    cache = None if args.no_cache else AutCache()
    rec = run_sweep(args.p, [P], cache=cache)[0]
    print(json.dumps(record_to_dict(rec), sort_keys=True, indent=2))
    if rec.error is not None:
        print(f"error: {rec.error}", file=sys.stderr)
        return 1
    return 0


def _subgroup_report(p: int, spec: SubgroupSpec) -> dict:
    sub = find_subgroup(p, spec)
    if sub is None:
        return {"spec": spec.describe(), "status": "absent"}
    P = partition_from_group(sub)
    return {
        "spec": spec.describe(),
        "status": "found",
        "generators": [list(m.entries()) for m in generator_matrices(sub)],
        "order": sub.order(),
        "orbit_sizes": sorted(P.block_sizes()),
        "orbit_size_set": sorted(P.lambda_set()),
        "slope_partition": P.as_string(),
    }


def cmd_subgroups(args) -> int:
    if args.spec.lower() == "all":
        specs = named_specs(args.p)
    else:
        try:
            specs = [parse_spec(args.spec)]
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    reports = [_subgroup_report(args.p, s) for s in specs]
    if args.json:
        print(json.dumps(reports, sort_keys=True, indent=2))
        return 0
    for r in reports:
        if r["status"] == "absent":
            print(f"{r['spec']:>10}: absent")
            continue
        gens = " ".join(str(tuple(g)) for g in r["generators"])
        print(f"{r['spec']:>10}: order {r['order']}, orbit sizes {r['orbit_sizes']}, "
              f"N(K) {r['orbit_size_set']}, partition {r['slope_partition']}, "
              f"generators {gens}")
    return 0


def cmd_verify_paper(args) -> int:
    results = run_checks(args.level)
    width = max(len(r.name) for r in results)
    all_ok = True
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        all_ok &= r.passed
        print(f"[{mark}] {r.name:<{width}}  {r.elapsed_s:7.2f}s  {r.detail}")
    print(f"{'all checks passed' if all_ok else 'FAILURES PRESENT'} "
          f"(level={args.level})")
    return 0 if all_ok else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "build": cmd_build,
        "sweep": cmd_sweep,
        "classify": cmd_classify,
        "subgroups": cmd_subgroups,
        "verify-paper": cmd_verify_paper,
    }
    try:
        return handlers[args.command](args)
    except (PlaneSchemesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, OSError) else 1     # OSError: an unwritable output path


if __name__ == "__main__":
    sys.exit(main())
