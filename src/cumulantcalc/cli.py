"""Command-line front end: enumeration, verification, tables, conversion.

Exit codes: 0 success, 1 identity failure, 2 usage error, 3 resource
limit exceeded or memory exhausted (a `MemoryError`, or a `verify --jobs`
worker that died), 141 stdout closed early (128 + SIGPIPE, as when piped
into `head`).  Data goes to stdout, diagnostics to stderr; identical
invocations produce byte-identical stdout (reports carry no timestamps
and all randomized checks are seeded).  With `-v`, `verify` also writes
one line per (identity, n) to stderr: its wall time and the peak RSS of
the process that ran it.

Names are checked by argparse `choices`, case-insensitively, against the
library's own tables: the classes of `partitions._CLASS_WALK` and
"monotone" for `enumerate`, the keys of `_TABLE_LIMITS` for `table` and
the sequence kinds of `cumulants._SEQUENCE_KINDS` for `convert`; an
unknown name is a usage error.  `enumerate` takes its first item, and
with it the walk's limit check, before it writes anything, so a
resource-limit error leaves stdout empty.

Every setting is a flag (--format, --limit, --jobs, --cache-dir, -v); the
CLI reads no environment variables.  Without a flag a setting takes its
built-in default: the first format the subcommand writes (`_FORMATS_OF`),
the limits of `limits.DEFAULT_LIMITS`, one job and no table cache.  A
format the subcommand does not write is a usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import resource
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from pathlib import Path

from .algebra import rational_from_str, rational_to_str
from .cumulants import _SEQUENCE_KINDS, build_beta_table, convert_sequence
from .forests import alpha
from .graphs import (
    anti_interval_digraph,
    anti_interval_graph,
    graph_to_json,
    tutte_eval,
)
from .identities import catalog_jobs, verify_identity
from .limits import ResourceLimitError, check_limit, override
from .partitions import (
    SetPartition,
    _CLASS_WALK,
    enumerate_monotone,
    enumerate_partitions,
    mobius_to_top,
    partitions_of,
)

EXIT_OK = 0
EXIT_IDENTITY_FAILURE = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_BROKEN_PIPE = 141


#: the output formats each subcommand writes, its default first; --format
#: picks one of them, and any other format is a usage error
_FORMATS_OF = {
    "enumerate": ("text", "json", "csv"),
    "verify": ("json", "text"),
    "table": ("csv", "json"),
    "convert": ("json",),
    "graph": ("text", "json"),
}

#: the values --format accepts for some subcommand
_FORMATS = tuple(dict.fromkeys(chain.from_iterable(_FORMATS_OF.values())))


def _check_positive_flag(name: str, value: int) -> None:
    """Raise a ValueError naming the flag `name` when `value` is below 1."""
    if value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value}")


def _json_dumps(obj) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=False)


# ---------------------------------------------------------------------------
# enumerate
# ---------------------------------------------------------------------------

#: the classes `enumerate` streams
_ENUMERATED = (*_CLASS_WALK, "monotone")

#: the class flags of each partition: its CSV columns and JSON keys, in order
_FLAGS = (
    ("noncrossing", SetPartition.is_noncrossing),
    ("interval", SetPartition.is_interval),
    ("irreducible", SetPartition.is_irreducible),
    ("connected", SetPartition.is_connected),
)


def _cmd_enumerate(args) -> int:
    if args.partition_class == "monotone":
        items, flags = enumerate_monotone(args.n), ()

        def record(op):
            return {"blocks_in_order": [list(b) for b in op.blocks_in_order]}
    else:
        items = enumerate_partitions(args.n, args.partition_class)
        flags = _FLAGS

        def record(pi):
            return {"partition": pi.to_json(), **{name: test(pi) for name, test in flags}}
    # the generator checks its walk's limit on the first item, so take it
    # before writing anything; every class holds the one-block partition
    items = chain([next(items)], items)
    write = sys.stdout.write
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["partition"] + [name for name, _ in flags])
        for item in items:
            writer.writerow([item.to_text()] + [test(item) for _, test in flags])
    elif args.format == "json":
        for item in items:
            write(_json_dumps(record(item)) + "\n")
    else:
        for item in items:
            write(item.to_text() + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


def _peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / (2**20 if sys.platform == "darwin" else 2**10)  # bytes there, KiB here


def _verify_worker(job):
    """(report, wall seconds, peak RSS in MiB), measured by the process
    that runs the job."""
    name, n, limit = job
    start = time.perf_counter()
    with override(limit):  # the override travels with the job to a worker
        report = verify_identity(name, n)
    return report, time.perf_counter() - start, _peak_rss_mb()


def _cmd_verify(args) -> int:
    names = None if args.all else [args.identity]
    jobs = [(name, n, args.limit)
            for name, n in catalog_jobs(args.n_max, names, strict=not args.all)]
    reports = []
    with ExitStack() as stack:
        if args.jobs > 1 and len(jobs) > 1:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=args.jobs))
            # on a failed job, drop the jobs that have not started
            stack.callback(pool.shutdown, cancel_futures=True)
            runs = pool.map(_verify_worker, jobs)
        else:
            runs = map(_verify_worker, jobs)
        for report, wall_s, peak_mb in runs:
            if args.verbose:
                print(f"verify {report.identity} n={report.n} wall_s={wall_s:.3f} "
                      f"peak_rss_mb={peak_mb:.1f}", file=sys.stderr)
            reports.append(report)
    all_hold = all(r.holds for r in reports)
    if args.format == "text":
        for r in reports:
            status = "ok" if r.holds else "FAIL"
            extra = ""
            if r.detail and "sum" in r.detail:
                extra = f" sum={r.detail['sum']}"
            print(f"{status} {r.identity} n={r.n}{extra}")
    else:
        print(_json_dumps([r.to_dict() for r in reports]))
    return EXIT_OK if all_hold else EXIT_IDENTITY_FAILURE


# ---------------------------------------------------------------------------
# table
# ---------------------------------------------------------------------------


def _digraph_key_str(n, und, dirs) -> str:
    parts = [f"n={n}"]
    if und:
        parts.append("u:" + ",".join(f"{a}-{b}" for a, b in und))
    if dirs:
        parts.append("d:" + ",".join(f"{a}>{b}" for a, b in dirs))
    return ";".join(parts)


#: the limit keys each table's builder checks at n
_TABLE_LIMITS = {
    "beta": ("all", "beta-blocks"),
    "alpha": ("noncrossing",),
    "tutte": ("all",),
    "mobius": ("all",),
}


def _table_rows(what: str, n: int):
    if what == "beta":
        header = ["partition", "digraph_key", "beta"]
        rows = [
            (pi.to_text(), _digraph_key_str(*key), rational_to_str(value))
            for pi, key, value in build_beta_table(n)
        ]
    elif what == "alpha":
        header = ["partition", "alpha"]
        rows = [
            (pi.to_text(), rational_to_str(alpha(pi)))
            for pi in partitions_of(n, "noncrossing")
        ]
    elif what == "tutte":
        header = ["partition", "blocks", "tutte_anti_interval_10"]
        rows = [
            (pi.to_text(), str(pi.num_blocks),
             str(tutte_eval(anti_interval_graph(pi))))
            for pi in partitions_of(n, "irreducible")
        ]
    else:  # "mobius"
        header = ["partition", "mu_p_top", "mu_nc_top", "mu_i_top"]
        rows = []
        for pi in partitions_of(n, "all"):
            nc = str(mobius_to_top(pi, "noncrossing")) if pi.is_noncrossing() else ""
            iv = str(mobius_to_top(pi, "interval")) if pi.is_interval() else ""
            rows.append((pi.to_text(), str(mobius_to_top(pi, "all")), nc, iv))
    return header, rows


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _cached_table_rows(cache_dir: Path, what: str, n: int):
    """`_table_rows` through a JSON file in `cache_dir`.

    A file that does not parse, or whose header is not a list of strings
    with every row a list of as many strings, counts as a miss; it is
    rewritten through a temporary file and `os.replace`, so readers never
    see a partial file.
    """
    # v1: the version of the payload format; bump it when the shape changes
    path = cache_dir / f"table-v1-{what}-{n}.json"
    try:
        payload = json.loads(path.read_text())
        header, rows = payload["header"], payload["rows"]
        if _strings(header) and isinstance(rows, list) and all(
            _strings(r) and len(r) == len(header) for r in rows
        ):
            return header, [tuple(r) for r in rows]
    except (FileNotFoundError, ValueError, KeyError, TypeError):
        pass
    header, rows = _table_rows(what, n)
    cache_dir.mkdir(parents=True, exist_ok=True)  # only once there is a table
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(_json_dumps({"header": header, "rows": [list(r) for r in rows]}))
    os.replace(tmp, path)
    return header, rows


def _cmd_table(args) -> int:
    # checked before the cache is read, so a hit is served only within the
    # limits the table's builder checks
    for key in _TABLE_LIMITS[args.what]:
        check_limit(key, args.n)
    if args.cache_dir:
        try:
            header, rows = _cached_table_rows(Path(args.cache_dir), args.what, args.n)
        except OSError as exc:  # the builder does no I/O: the cache failed
            raise ValueError(f"--cache-dir {args.cache_dir} cannot be used: {exc}") from None
    else:
        header, rows = _table_rows(args.what, args.n)
    if args.format == "json":
        print(_json_dumps([dict(zip(header, r)) for r in rows]))
    else:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        sys.stdout.write(out.getvalue())
    return EXIT_OK


# ---------------------------------------------------------------------------
# convert
# ---------------------------------------------------------------------------

def _exact_number(literal: str) -> Fraction:
    """A JSON number with a fraction or an exponent, read exactly rather
    than through a binary float.  An exponent e whose 10^|e| has more
    digits than the interpreter writes as text
    (`sys.get_int_max_str_digits()`, 0 for no limit) is a ValueError
    before 10^e is built."""
    _, _, exponent = literal.lower().partition("e")
    limit = sys.get_int_max_str_digits()
    if exponent and limit and abs(int(exponent)) >= limit:
        raise ValueError(f"exponent out of range in {literal}")
    return Fraction(literal)


#: built once: `json.loads` with a keyword builds a decoder per call
_EXACT_JSON = json.JSONDecoder(parse_float=_exact_number)


def _cmd_convert(args) -> int:
    try:
        raw = _EXACT_JSON.decode(args.values)
    except json.JSONDecodeError as exc:
        print(f"error: values must be a JSON array of rationals "
              f"(parse error at position {exc.pos})", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:  # a number literal the decoder cannot convert
        print(f"error: bad rational in values: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if not isinstance(raw, list) or not raw:
        print("error: values must be a non-empty JSON array", file=sys.stderr)
        return EXIT_USAGE
    try:
        values = [rational_from_str(str(v)) for v in raw]
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: bad rational in values: {exc}", file=sys.stderr)
        return EXIT_USAGE
    out = convert_sequence(args.src, args.dst, values)
    try:
        texts = [rational_to_str(v) for v in out]
    except ValueError:  # str(int) refuses more digits than the limit
        raise ResourceLimitError(
            "a converted value has more digits than the interpreter writes as "
            f"text (sys.get_int_max_str_digits() = {sys.get_int_max_str_digits()})"
        ) from None
    print(_json_dumps(texts))
    return EXIT_OK


# ---------------------------------------------------------------------------
# graph (small helper for inspecting partition graphs)
# ---------------------------------------------------------------------------


def _parse_partition(text: str) -> SetPartition:
    """Accept both the text form "1,3|2" and the JSON form [[1,3],[2]]."""
    text = text.strip()
    if text.startswith("["):
        return SetPartition.from_json(json.loads(text))
    return SetPartition.from_text(text)


def _cmd_graph(args) -> int:
    pi = _parse_partition(args.partition)
    g = anti_interval_digraph(pi)
    if args.format == "text":
        print(_digraph_key_str(g.n, g.undirected, g.directed))
    else:
        print(_json_dumps(graph_to_json(g)))
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    `main` call: it reads no environment, and parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cumulantcalc",
        description="Exact cumulant combinatorics: enumeration, identity "
                    "verification, coefficient tables and conversions.",
    )
    parser.add_argument("--format", choices=_FORMATS, default=None,
                        help="output format (default depends on the subcommand)")
    parser.add_argument("--limit", type=int, default=None,
                        help="override every enumeration size limit, for any "
                             "command (catalog caps are not settable)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel workers for verification sweeps")
    parser.add_argument("--cache-dir", default=None,
                        help="directory for cached coefficient tables")
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="verify: one line per (identity, n) on stderr with "
                             "its wall time and the peak RSS of the process "
                             "that ran it")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enumerate", help="stream partitions of a class")
    p.add_argument("n", type=int)
    p.add_argument("partition_class", type=str.lower, choices=_ENUMERATED)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="verify one identity (or --all) up to n")
    p.add_argument("identity", nargs="?", default=None)
    p.add_argument("n_max", type=int)
    p.add_argument("--all", action="store_true",
                   help="run the whole catalog, clamping each identity to its max n")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("table", help="emit beta/alpha/tutte/mobius tables")
    p.add_argument("what", type=str.lower, choices=_TABLE_LIMITS)
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("convert", help="convert a rational sequence between bases")
    p.add_argument("src", type=str.lower, choices=_SEQUENCE_KINDS)
    p.add_argument("dst", type=str.lower, choices=_SEQUENCE_KINDS)
    p.add_argument("values", help='JSON array of rationals, e.g. \'["1","1/2"]\'')
    p.set_defaults(func=_cmd_convert)

    p = sub.add_parser("graph", help="print the anti-interval digraph of a partition")
    p.add_argument("partition", help='text form, e.g. "1,3|2"')
    p.set_defaults(func=_cmd_graph)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify" and args.all == (args.identity is not None):
        print("error: verify needs exactly one of an identity name and --all", file=sys.stderr)
        return EXIT_USAGE
    try:
        _check_positive_flag("--jobs", args.jobs)
        if args.limit is not None:
            _check_positive_flag("--limit", args.limit)
        formats = _FORMATS_OF[args.command]
        if args.format is None:
            args.format = formats[0]
        elif args.format not in formats:
            raise ValueError(f"{args.command} does not write --format {args.format} "
                             f"(it writes {', '.join(formats)})")
        with override(args.limit):
            code = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except ResourceLimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (MemoryError, BrokenProcessPool) as exc:
        # a worker that the kernel kills breaks the pool; `verify` prints
        # only after its last job, so its stdout stays empty
        what = "ran out of memory" if isinstance(exc, MemoryError) else "lost a worker process"
        print(f"error: {args.command} {what}; lower n or --limit", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # the reader went away: silence the flush at exit (recipe from the
        # Python docs, "Note on SIGPIPE") and exit as SIGPIPE would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE


if __name__ == "__main__":
    sys.exit(main())
