"""Command-line interface: compute, check, report.

Exit codes: 0 all equalities hold, 1 violation, 2 invalid input,
3 informative-only.  Configuration comes from an optional key=value file
plus flags; flags win.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from . import __version__
from .harness import (
    EXIT_INVALID,
    CHECKS,
    VERDICT_EXIT,
    InvalidCheckSpec,
    compute,
    default_cache_dir,
    run_check,
)

FORMATS = ("json", "csv")
CONFIG_KEYS = ("cache_dir", "format", *(f"check.{name}" for name in sorted(CHECKS)))


def _load_config(path: str | None) -> dict:
    """The `key = value` lines of the config file; a line that is not blank,
    a `#` comment or one of CONFIG_KEYS is invalid input."""
    if path is None:
        if not os.path.exists("vertexforge.cfg"):
            return {}
        path = "vertexforge.cfg"
    cfg = {}
    for num, line in enumerate(_read_text(path, "config file").splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, val = line.partition("=")
        key = key.strip()
        if not eq or key not in CONFIG_KEYS:
            raise _InvalidInput(f"invalid config file {path}: line {num} {line!r} is not "
                                f"`key = value` with a key among {', '.join(CONFIG_KEYS)}")
        cfg[key] = val.strip()
    return cfg


class _InvalidInput(Exception):
    """Input the CLI rejects: exit 2 with this message."""


def _read_text(path: str, what: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _InvalidInput(f"invalid {what}: cannot read {path}: {exc}") from None


def _read_json(path: str, what: str):
    try:
        return json.loads(_read_text(path, what))
    except json.JSONDecodeError as exc:
        raise _InvalidInput(f"invalid {what}: {path} is not JSON: {exc}") from None


def _write_out(path: str, data: str | bytes) -> None:
    """Write an `--out` file; a path that cannot be written is invalid
    input, never a violation of what was computed."""
    try:
        with open(path, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
    except OSError as exc:
        raise _InvalidInput(f"invalid --out: cannot write {path}: {exc.strerror or exc}") from None


def _emit(doc: dict, fmt: str) -> None:
    if fmt == "json":
        json.dump(doc, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
        return
    buf = io.StringIO()
    writer = csv.writer(buf)
    rows = doc.get("cases") or doc.get("coeffs") or [doc]
    if rows and isinstance(rows[0], dict):
        keys = sorted({k for r in rows for k in r})
        writer.writerow(keys)
        for r in rows:
            writer.writerow([json.dumps(r.get(k)) for k in keys])
    else:
        for i, r in enumerate(rows):
            writer.writerow([i, json.dumps(r)])
    sys.stdout.write(buf.getvalue())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="vertexforge",
        description="Exact DT/PT one-leg vertex series and identity certification.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    parser.add_argument("--config", help="key=value config file (flags override)")
    parser.add_argument("--cache-dir", help="result cache directory")
    parser.add_argument("--format", choices=FORMATS, help="output format (default json)")
    sub = parser.add_subparsers(dest="verb", required=True)

    p_check = sub.add_parser("check", help="run a named identity suite")
    p_check.add_argument("name", choices=sorted(CHECKS))
    p_check.add_argument("--params", help="JSON object of check parameters")
    p_check.add_argument("--out", help="write the report to this path")

    p_compute = sub.add_parser("compute", help="compute a series request (cached)")
    p_compute.add_argument("request", help="JSON request or @file")
    p_compute.add_argument("--out", help="write the result to this path")

    p_rep = sub.add_parser("report", help="render a stored report")
    p_rep.add_argument("path")

    args = parser.parse_args(argv)
    try:
        return _run(args)
    except _InvalidInput as exc:
        print(exc, file=sys.stderr)
        return EXIT_INVALID


def _run(args) -> int:
    cfg = _load_config(args.config)
    if args.cache_dir:
        cache_dir = args.cache_dir
    elif "cache_dir" in cfg:
        cache_dir = cfg["cache_dir"]
    else:
        cache_dir = default_cache_dir()
    fmt = args.format or cfg.get("format", "json")
    if fmt not in FORMATS:
        raise _InvalidInput(f"invalid config format {fmt!r}: expected one of {', '.join(FORMATS)}")

    if args.verb == "check":
        params = {}
        # the config file's defaults first, then the flag
        for source, text in ((f"config check.{args.name}", cfg.get(f"check.{args.name}")),
                             ("--params", args.params)):
            if not text:
                continue
            try:
                given = json.loads(text)
            except json.JSONDecodeError as exc:
                raise _InvalidInput(f"invalid {source} JSON: {exc}") from None
            if not isinstance(given, dict):
                raise _InvalidInput(f"invalid check spec: {source} must be a JSON object")
            params.update(given)
        try:
            report = run_check(args.name, params)
        except InvalidCheckSpec as exc:
            raise _InvalidInput(f"invalid check spec: {exc}") from None
        doc = report.to_json()
        if report.full_report:
            doc["full_report"] = report.full_report
        if args.out:
            _write_out(args.out, json.dumps(doc, indent=2, sort_keys=True))
        _emit(doc, fmt)
        return report.exit_code

    if args.verb == "compute":
        raw = args.request
        if raw.startswith("@"):
            raw = _read_text(raw[1:], "request file")
        try:
            request = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise _InvalidInput(f"malformed request JSON: {exc}") from None
        try:
            blob, hit = compute(request, None, cache_dir)
        except (InvalidCheckSpec, KeyError, ValueError) as exc:
            raise _InvalidInput(f"invalid request: {exc}") from None
        except OSError as exc:
            # a cache directory naming a regular file, or one not writable
            raise _InvalidInput(f"invalid cache directory {cache_dir}: {exc.strerror or exc}") from None
        if args.out:
            _write_out(args.out, blob)
        sys.stdout.write(blob.decode())
        sys.stdout.write("\n")
        sys.stderr.write("cache hit\n" if hit else "computed\n")
        return 0

    # report
    doc = _read_json(args.path, "report")
    if not isinstance(doc, dict):
        raise _InvalidInput(f"invalid report: {args.path} is not a JSON object")
    # a document without a verdict, such as a compute result, claims nothing
    verdict = doc.get("verdict", "pass")
    if not isinstance(verdict, str) or verdict not in VERDICT_EXIT:
        raise _InvalidInput(f"invalid report: {args.path} has verdict {verdict!r}; "
                            f"expected one of {', '.join(VERDICT_EXIT)}")
    _emit(doc, fmt)
    return VERDICT_EXIT[verdict]


if __name__ == "__main__":
    sys.exit(main())
