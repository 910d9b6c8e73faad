"""Command-line entry points.

``validate`` mirrors the reference CLI (docs/validate_csv_records.py:20-57:
``-i input.csv -r rules.json -o output``) but runs the distributed
pipeline; ``quality-filter`` runs the flagship resumable web-text filter;
``bench`` defers to bench.py.

Owns its Ray session (scripts must leave a clean slate; the driver-facing
entry points in __ray_entry__.py never init Ray).
"""

from __future__ import annotations

import argparse
import json
import sys


def _init_ray(num_cpus: int | None):
    import ray
    if not ray.is_initialized():
        kwargs = {"address": "local", "include_dashboard": False,
                  "ignore_reinit_error": True, "logging_level": "ERROR"}
        if num_cpus:
            kwargs["num_cpus"] = num_cpus
        ray.init(**kwargs)


def _load_rules(path: str) -> dict:
    """Rule schemas load from JSON or YAML (the reference's rule
    definitions are authored in either; docs/data-quality-rule-
    definition-guidelines.md)."""
    with open(path) as f:
        if path.endswith((".yaml", ".yml")):
            import yaml
            return yaml.safe_load(f)
        return json.load(f)


def cmd_validate(args) -> int:
    import ray
    from nacc_form_validator_ray.stages.validate import validate_dataset

    _init_ray(args.num_cpus)
    schema = _load_rules(args.rules)

    from nacc_form_validator_ray.sources import read_any
    ds = read_any(args.input)

    ds = validate_dataset(ds, schema, pk_field=args.primary_key,
                          orderby=args.orderby, strict=args.strict,
                          collect="full")

    if args.output:
        if args.output.endswith(".csv"):
            # flatten the error vector for CSV output
            import pandas as pd

            def flatten(batch: "pd.DataFrame") -> "pd.DataFrame":
                # rows arrive as numpy arrays of error structs — `errs
                # or []` raises on arrays with more than one element
                batch = batch.copy()
                batch["errors"] = [
                    "; ".join(f"{e['field']}: {e['message']}"
                              for e in errs)
                    if errs is not None else ""
                    for errs in batch["errors"]]
                return batch

            ds.map_batches(flatten, batch_format="pandas") \
                .write_csv(args.output)
        elif args.output.endswith(".json"):
            ds.write_json(args.output)
        else:
            ds.write_parquet(args.output)

    n_total = ds.count()
    n_failed = ds.filter(lambda r: not r["passed"]).count()
    print(f"validated {n_total} records; {n_failed} failed")
    ray.shutdown()
    return 0 if n_failed == 0 else 1


def cmd_quality_filter(args) -> int:
    import ray
    from nacc_form_validator_ray.pipelines.quality_filter import \
        run_quality_filter

    _init_ray(args.num_cpus)
    rules = _load_rules(args.rules) if args.rules else None
    metrics = run_quality_filter(args.input, args.output, rules=rules,
                                 resume=not args.no_resume,
                                 files_per_partition=args.files_per_part)
    print(json.dumps(metrics, indent=1))
    ray.shutdown()
    return 0


def cmd_pretrain(args) -> int:
    import ray
    from nacc_form_validator_ray.pipelines.pretrain import run_pretrain

    _init_ray(args.num_cpus)
    rules = _load_rules(args.rules) if args.rules else None
    metrics = run_pretrain(args.input, args.output, rules=rules)
    print(json.dumps(metrics, indent=1))
    ray.shutdown()
    return 0


def cmd_webclean(args) -> int:
    """Composed web-clean over a linked-page parquet directory:
    URL blocklist -> canonical-url recrawl dedup -> C4 line filter,
    written as partitioned parquet (payload discipline: text joins the
    lean url verdicts by id and never rides the url exchange)."""
    import ray
    import ray.data as rd
    from nacc_form_validator_ray.stages.joins import hash_join
    from nacc_form_validator_ray.stages.webclean import (
        c4_line_filter, normalize_urls, url_blocklist_filter)

    _init_ray(args.num_cpus)
    urls = rd.read_parquet(args.input, columns=["doc_id", "url"])
    allowed = url_blocklist_filter(urls) \
        .filter(expr="blocked == False") \
        .select_columns(["doc_id", "url"])
    canon = normalize_urls(allowed).filter(expr="is_canonical") \
        .select_columns(["doc_id", "norm_url"])
    docs = rd.read_parquet(args.input, columns=["doc_id", "text"])
    kept = hash_join(docs, canon, on=["doc_id"])
    out = c4_line_filter(kept, passthrough=("norm_url",))
    final = out.map_batches(lambda b: b.filter(b["keep"]),
                            batch_format="pyarrow")
    n_in = docs.count()
    final.write_parquet(args.output)
    n_out = rd.read_parquet(args.output).count()
    print(json.dumps({"input_docs": n_in, "kept_docs": n_out,
                      "output": args.output}, indent=1))
    ray.shutdown()
    return 0


def cmd_semdedup(args) -> int:
    """SemDeDup over an embeddings parquet directory: writes the full
    verdict table (vec_id, cid, kept, dup_of) as partitioned parquet
    and prints the keep/drop counts."""
    import ray
    import ray.data as rd
    from nacc_form_validator_ray.stages.semdedup import semdedup

    _init_ray(args.num_cpus)
    ds = rd.read_parquet(args.input,
                         columns=[args.id_column, args.vec_column])
    out = semdedup(ds, vec_column=args.vec_column,
                   id_column=args.id_column, k=args.k,
                   iterations=args.iterations,
                   dist2_threshold=args.threshold)
    out.write_parquet(args.output)
    verdicts = rd.read_parquet(args.output, columns=["kept"])
    n = verdicts.count()
    kept = verdicts.sum("kept")
    print(json.dumps({"vectors": n, "kept": int(kept),
                      "dropped": int(n - kept),
                      "output": args.output}, indent=1))
    ray.shutdown()
    return 0


def cmd_genpages(args) -> int:
    import ray
    from nacc_form_validator_ray.pipelines.webgen import (
        generate_linked_pages, generate_pages)

    _init_ray(args.num_cpus)
    gen = generate_linked_pages if getattr(args, "linked", False) \
        else generate_pages
    ds = gen(args.n_docs, seed=args.seed)
    ds.write_parquet(args.output)
    print(f"wrote {args.n_docs} pages to {args.output}")
    ray.shutdown()
    return 0


def cmd_query(args) -> int:
    """Run any registered pipeline from the query registry over a
    testdata-shaped table directory and write the result as parquet
    (a DataFrame result lands as one file; a Dataset result streams
    to partitioned shards)."""
    import pandas as pd
    import ray

    from nacc_form_validator_ray.pipelines.queries import QUERIES

    if args.list:
        for name in sorted(QUERIES):
            print(name)
        return 0
    if args.name not in QUERIES:
        print(f"unknown query: {args.name!r} "
              f"(see --list for the {len(QUERIES)} registered names)",
              file=sys.stderr)
        return 2

    _init_ray(args.num_cpus)
    result = QUERIES[args.name](args.input)
    if isinstance(result, pd.DataFrame):
        import os
        os.makedirs(args.output, exist_ok=True)
        out = os.path.join(args.output, "part-0.parquet")
        result.to_parquet(out, index=False)
        n = len(result)
    else:
        result.write_parquet(args.output)
        n = "streamed"
    print(f"{args.name}: wrote {n} rows to {args.output}")
    ray.shutdown()
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="nacc-form-validator-ray")
    sub = ap.add_subparsers(dest="cmd", required=True)

    v = sub.add_parser("validate", help="bulk-validate records")
    v.add_argument("-i", "--input", required=True,
                   help="csv/json/parquet input")
    v.add_argument("-r", "--rules", required=True,
                   help="rule schema JSON")
    v.add_argument("-o", "--output", help="output path (csv/json/parquet)")
    v.add_argument("-k", "--primary-key", default=None)
    v.add_argument("--orderby", default=None)
    v.add_argument("--strict", action="store_true")
    v.add_argument("--num-cpus", type=int, default=None)
    v.set_defaults(fn=cmd_validate)

    q = sub.add_parser("quality-filter",
                       help="resumable web-text quality filter")
    q.add_argument("-i", "--input", required=True,
                   help="directory of parquet or JSONL page files")
    q.add_argument("-o", "--output", required=True)
    q.add_argument("-r", "--rules", default=None)
    q.add_argument("--no-resume", action="store_true")
    q.add_argument("--files-per-part", type=int, default=1)
    q.add_argument("--num-cpus", type=int, default=None)
    q.set_defaults(fn=cmd_quality_filter)

    p = sub.add_parser("pretrain",
                       help="quality filter + scrub + exact/near dedup")
    p.add_argument("-i", "--input", required=True,
                   help="directory of parquet or JSONL page files")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("-r", "--rules", default=None)
    p.add_argument("--num-cpus", type=int, default=None)
    p.set_defaults(fn=cmd_pretrain)

    w = sub.add_parser("webclean",
                       help="url blocklist + recrawl dedup + C4 filter")
    w.add_argument("-i", "--input", required=True,
                   help="directory of linked-page parquet files")
    w.add_argument("-o", "--output", required=True)
    w.add_argument("--num-cpus", type=int, default=None)
    w.set_defaults(fn=cmd_webclean)

    s = sub.add_parser("semdedup",
                       help="semantic dedup over an embeddings table")
    s.add_argument("-i", "--input", required=True)
    s.add_argument("-o", "--output", required=True)
    s.add_argument("--vec-column", default="embedding")
    s.add_argument("--id-column", default="vec_id")
    s.add_argument("-k", type=int, default=8)
    s.add_argument("--iterations", type=int, default=3)
    s.add_argument("--threshold", type=int, default=20_000_000,
                   help="quantized squared-L2 drop threshold")
    s.add_argument("--num-cpus", type=int, default=None)
    s.set_defaults(fn=cmd_semdedup)

    g = sub.add_parser("genpages", help="generate synthetic page corpus")
    g.add_argument("-n", "--n-docs", type=int, required=True)
    g.add_argument("-o", "--output", required=True)
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--linked", action="store_true",
                   help="generate the linked-page shape (urls+links)")
    g.add_argument("--num-cpus", type=int, default=None)
    g.set_defaults(fn=cmd_genpages)

    r = sub.add_parser(
        "query",
        help="run a registered pipeline over a table directory")
    r.add_argument("-n", "--name", default="",
                   help="query name (see --list)")
    r.add_argument("-i", "--input", default="",
                   help="directory holding the parquet tables "
                        "(testdata shape)")
    r.add_argument("-o", "--output", default="",
                   help="output parquet directory")
    r.add_argument("--list", action="store_true",
                   help="list registered query names and exit")
    r.add_argument("--num-cpus", type=int, default=None)
    r.set_defaults(fn=cmd_query)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
