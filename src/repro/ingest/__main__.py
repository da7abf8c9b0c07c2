"""Command-line ingestion tools: ``python -m repro.ingest <command>``.

* ``convert`` — turn a capture (lackey log or CSV) into a portable
  trace file;
* ``inspect`` — summarize a portable trace (record counts by class,
  address footprint, window preview for a given spec);
* ``compile`` — compile a windowed sample into engine build products
  and report the workload token and the synthesized program's shape.
  Runs over the token store their build in the artifact cache
  themselves, the first time they compile it.

Every command streams, so multi-gigabyte captures are fine.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.eval.options import REGS_RANGE, int_at_least, int_in_range
from repro.ingest.build import (
    add_window_args,
    compile_workload,
    trace_workload,
    window_from_args,
)
from repro.ingest.convert import convert_csv, convert_lackey
from repro.ingest.format import (
    IngestError,
    MEM_CLASSES,
    read_portable,
    write_portable,
)


def _cmd_convert(args) -> int:
    input_format = args.input_format
    if input_format is None:
        is_csv = args.input.lower().endswith((".csv", ".csv.gz"))
        input_format = "csv" if is_csv else "lackey"
    if input_format == "lackey":
        records = convert_lackey(args.input)
    else:
        records = convert_csv(args.input)
    count = write_portable(args.output, records)
    print(f"wrote {count} records to {args.output}")
    return 0


def _cmd_inspect(args) -> int:
    total = 0
    by_class: "dict[str, int]" = {}
    pages = set()
    code_pages = set()
    for rec in read_portable(args.input):
        total += 1
        by_class[rec.op] = by_class.get(rec.op, 0) + 1
        code_pages.add(rec.pc >> 12)
        if rec.op in MEM_CLASSES:
            pages.add(rec.ea >> 12)
    summary = {
        "records": total,
        "by_class": dict(sorted(by_class.items())),
        "code_pages_4k": len(code_pages),
        "data_pages_4k": len(pages),
    }
    window = window_from_args(args)
    try:
        ranges = window.select_windows(total)
        summary["window"] = {
            "spec": window.query(),
            "windows": len(ranges),
            "sampled_records": sum(stop - start for start, stop in ranges),
        }
    except IngestError as exc:
        summary["window"] = {"spec": window.query(), "error": str(exc)}
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_compile(args) -> int:
    token = trace_workload(args.input, window_from_args(args))
    compiled = compile_workload(
        token,
        int_regs=args.int_regs,
        fp_regs=args.fp_regs,
        max_instructions=args.max_instructions,
    )
    print(
        json.dumps(
            {
                "workload": token,
                "records": compiled.meta["records"],
                "static_slots": compiled.meta["static_slots"],
                "source_records": compiled.meta["source_records"],
                "truncated": compiled.meta["truncated"],
            },
            indent=2,
        )
    )
    return 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.ingest",
        description="convert, inspect and compile external address traces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    convert = sub.add_parser("convert", help="capture file -> portable trace")
    convert.add_argument("input", help="capture file (.gz transparently)")
    convert.add_argument("output", help="portable trace to write")
    convert.add_argument(
        "--from",
        dest="input_format",
        choices=("lackey", "csv"),
        default=None,
        help="capture format (default: csv for .csv/.csv.gz inputs, "
        "lackey for anything else)",
    )
    convert.set_defaults(func=_cmd_convert)

    inspect = sub.add_parser("inspect", help="summarize a portable trace")
    inspect.add_argument("input", help="portable trace file")
    add_window_args(inspect)
    inspect.set_defaults(func=_cmd_inspect)

    compile_ = sub.add_parser(
        "compile", help="compile a windowed sample into build products"
    )
    compile_.add_argument("input", help="portable trace file")
    compile_.add_argument("--int-regs", type=int_in_range(*REGS_RANGE), default=32)
    compile_.add_argument("--fp-regs", type=int_in_range(*REGS_RANGE), default=32)
    compile_.add_argument(
        "--max-instructions",
        type=int_at_least(1),
        default=None,
        help="truncate the sample to this many records",
    )
    add_window_args(compile_)
    compile_.set_defaults(func=_cmd_compile)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except IngestError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
