"""Command line front end.

One executable, ``igf``, with subcommands for point evaluation, entropy,
moments, curve sampling to CSV, closed-form family values, escort
transforms, and canonical re-serialization of scheme files.

Exit codes: 0 success, 2 validation problems (unreadable or malformed input,
bad parameters), 3 evaluation outside a function's domain, 4 a requested
identity verification that did not pass.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from functools import partial
from itertools import islice, repeat
from typing import Callable, Iterator, Sequence

from .closed_forms import closed_form_value, direct_sum_value
from .distributions import (
    FamilyKind,
    ParametricFamily,
    UtilityDistribution,
    UtilityInformationScheme,
    constant_utility_scheme,
    realize_family,
    scheme_from_dict,
)
from .errors import DomainError, ValidationError, check_open, check_t
from .escort import escort_transform, verify_scaling_identity
from .generating_functions import (
    CurveRequest,
    LogBase,
    Measure,
    check_curve_grid,
    curve_grid,
    curve_values,
    evaluate_curve,  # noqa: F401  (importable from here since it moved to the library)
    evaluate_measure,
    weighted_entropy,
    weighted_igf,
    weighted_self_information_moments,
)

DEFAULT_DIGITS = 12
MAX_DIGITS = 17
MAX_MOMENT_ORDER = 8


#: Nonzero terms times grid points above which :func:`render_curve_csv`
#: splits a curve: measured, see the README.
_SPLIT_CURVE_WORK = 100_000
#: Consecutive runs of the grid of a split curve.  Per call,
#: ``curve_values`` makes passes over the scheme that cost about one grid
#: point of a constant-utility curve, so runs are long; with 8 runs on 101
#: points the two processes get 52 and 49 points of about equal cost.
_CURVE_RUNS = 8


def _worth_splitting(work: int, min_work: int) -> bool:
    """Whether ``work`` units go to :func:`_split_map`: more than
    ``min_work`` of them, a process that can fork, two or more CPUs it may
    run on, and no other thread, which a forked child would not have."""
    if work <= min_work or not hasattr(os, "fork"):
        return False
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        cpus = os.cpu_count() or 1
    import threading

    return cpus >= 2 and threading.active_count() == 1


def _split_map(fn: Callable, items: Sequence) -> Iterator:
    """``map(fn, items)``, with every other item computed by a forked child.

    The child computes the items at odd indexes and sends each result as
    one bytes object, ``marshal.dump(marshal.dumps(result), pipe)``, so
    results are built of core types such as str, float, tuple and list; at
    its first exception, or when the pipe breaks, it stops.  It leaves
    through ``os._exit``, so it flushes no inherited buffer and runs no exit
    handler.  This process computes the other items and reads the child's
    results as their turn comes, holding one at a time.  The bytes framing
    makes each result one read from the pipe: ``marshal.load`` of a list
    of floats straight from a pipe makes a call per element, 0.41 s for
    5e5 floats against 0.034 s for ``marshal.loads`` of the same bytes.
    ``marshal.load`` raises EOFError on a result the child did not finish,
    and from then on this process computes the child's items itself.  So
    every result and every exception is that of the serial ``map``, in the
    same order.  The child is killed and reaped however the iteration ends;
    if it cannot be forked the map is serial.
    """
    import marshal
    import signal

    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        yield from map(fn, items)
        return
    if pid == 0:
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                for item in items[1::2]:
                    marshal.dump(marshal.dumps(fn(item)), pipe)
                    pipe.flush()
        finally:
            os._exit(0)
    os.close(write_fd)
    try:
        with open(read_fd, "rb") as pipe:
            child = True
            for i, item in enumerate(items):
                if i % 2 and child:
                    try:
                        yield marshal.loads(marshal.load(pipe))
                        continue
                    except EOFError:
                        child = False
                yield fn(item)
    finally:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)


def render_curve_csv(request: CurveRequest) -> str:
    """CSV text for a curve request: header row, then one row per grid point.

    Floats are rendered with ``repr`` (shortest round-trip form) and rows end
    with a bare newline, so identical requests produce byte-identical output.
    A long curve is evaluated in _CURVE_RUNS consecutive runs of its grid,
    every other one by a second process (see :func:`_split_map`); any
    other in one run.
    """
    ts = curve_grid(request)
    probs = request.scheme.dist.probs
    split = _worth_splitting((len(probs) - probs.count(0.0)) * len(ts), _SPLIT_CURVE_WORK)
    size = -(-len(ts) // _CURVE_RUNS) if split else len(ts)
    runs = [ts[k:k + size] for k in range(0, len(ts), size)]
    evaluate = partial(
        curve_values, request.scheme, measures=request.measures, extended=request.extended
    )
    rows = [row for run in (_split_map if split else map)(evaluate, runs) for row in run]
    lines = ["t," + ",".join(m.value for m in request.measures)]
    for t, values in zip(ts, rows):
        lines.append(repr(t) + "," + ",".join(repr(v) for v in values))
    return "\n".join(lines) + "\n"


def write_curve_csv(request: CurveRequest, path: str) -> None:
    text = render_curve_csv(request)
    try:
        with open(path, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc}") from None


def _load_scheme(path: str | None, fmt: str) -> UtilityInformationScheme:
    if path is None:
        raise ValidationError("an --input file is required for this command")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    if fmt == "json":
        try:
            doc = _parse_json(text)
        except ValueError as exc:  # malformed, or an int past the digit limit
            raise ValidationError(f"{path} is not valid JSON: {exc}") from None
    else:
        doc = _parse_csv(text, path)
    # at a million entries the text is as large as the parsed vectors, and
    # nothing needs it once they are parsed
    del text
    return scheme_from_dict(doc)


#: Characters of a scheme file above which it is parsed by two processes
#: (see :func:`_split_map`), 24 MiB: measured, see the README.
_SPLIT_PARSE = 24 << 20
#: Characters of CSV text per chunk of :func:`_parse_csv`, some 50k rows of
#: 17-digit values; also about the size of a piece of a JSON number array.
_CSV_CHUNK = 1 << 21
_CSV_HEADERS = ("p,u", "probability,utility")
_JSON_SPACE = re.compile(r"[ \t\n\r]*")


def _parse_json(text: str) -> object:
    """``json.loads(text)``; above _SPLIT_PARSE characters, on two CPUs.

    A large text that is a JSON object is walked key by key with
    ``JSONDecoder.raw_decode``.  A value that starts with ``[`` and holds
    no ``"``, ``[`` or ``{`` before its first ``]`` is a flat array: its
    elements are numbers or constants, which hold no comma, so its commas
    are exactly its separators.  Such an array is cut at commas into pieces
    of about _CSV_CHUNK characters, and each piece is parsed by
    ``json.loads("[" + piece + "]")`` in this process or a forked child.
    The array is valid if and only if every piece is a valid non-empty
    array, and its elements are then the pieces' elements in order.  Any
    other value is parsed in place.  On anything else (a top level that is
    not an object, a duplicate key, a bad separator, trailing text, a piece
    that fails or is empty) the whole text goes to ``json.loads``, which
    gives its value or its error.
    """
    if not _worth_splitting(len(text), _SPLIT_PARSE):
        return json.loads(text)
    try:
        doc, pieces = _json_walk(text)
    except ValueError:
        return json.loads(text)
    parts = _split_map(partial(_parse_json_piece, text), [span for _, span in pieces])
    try:
        for (key, _), part in zip(pieces, parts):
            if part is None:
                break
            doc[key] += part
        else:
            return doc
    finally:
        parts.close()
    return json.loads(text)


def _json_walk(text: str) -> tuple[dict, list]:
    """The object of JSON ``text`` with each flat array value empty, and
    ``(key, span)`` for each piece of those arrays, in order; ValueError
    where :func:`_parse_json` hands the text to ``json.loads``."""
    space, decode = _JSON_SPACE.match, json.JSONDecoder().raw_decode
    doc: dict = {}
    pieces = []
    i = space(text).end() + 1
    if text[i - 1:i] != "{":
        raise ValueError
    sep = ","
    while sep == ",":
        i = space(text, i).end()
        if text[i:i + 1] != '"':
            raise ValueError
        key, i = decode(text, i)
        i = space(text, i).end()
        if key in doc or text[i:i + 1] != ":":
            raise ValueError
        i = space(text, i + 1).end()
        close = text.find("]", i) if text[i:i + 1] == "[" else -1
        if close > 0 and all(text.find(c, i + 1, close) < 0 for c in '"[{'):
            doc[key] = []
            start = i + 1
            while start <= close:
                cut = text.find(",", start + _CSV_CHUNK, close)
                end = close if cut < 0 else cut
                pieces.append((key, (start, end)))
                start = end + 1
            i = close + 1
        else:
            doc[key], i = decode(text, i)
        i = space(text, i).end()
        sep = text[i:i + 1]
        i += 1
    if sep != "}" or space(text, i).end() != len(text):
        raise ValueError
    return doc, pieces


def _parse_json_piece(text: str, span: tuple[int, int]) -> list | None:
    """The elements of ``text[start:end]`` read as the inside of a JSON
    array, or None if it is not a valid non-empty one."""
    try:
        return json.loads("[" + text[span[0]:span[1]] + "]") or None
    except ValueError:
        return None


def _parse_csv(text: str, path: str) -> dict[str, list[float]]:
    """The scheme document of CSV ``text``: a ``p,u`` row per outcome,
    after an optional header row, the first row that is not blank.

    The header is found first; the rows after it are parsed in chunks of
    about _CSV_CHUNK characters, each cut just after a newline, so no list
    of every row is held.  Each chunk goes through the C pass of
    :func:`_parse_csv_chunk`, above _SPLIT_PARSE characters every other
    one in a forked child (see :func:`_split_map`).  This process takes the
    values in order and reads each chunk the C pass refused with
    :func:`_parse_csv_rows`, whose messages name the row.
    """
    probs: list[float] = []
    utils: list[float] = []
    spans = list(_csv_chunks(text, _csv_header_end(text)))
    split = _worth_splitting(len(text), _SPLIT_PARSE)
    parsed = (_split_map if split else map)(partial(_parse_csv_chunk, text), spans)
    try:
        for (start, end), values in zip(spans, parsed):
            if values is None:
                _parse_csv_rows(text[start:end].splitlines(), path, probs, utils)
            else:
                probs += values[0]
                utils += values[1]
    finally:
        if split:
            parsed.close()
    return {"probabilities": probs, "utilities": utils}


def _csv_chunks(text: str, start: int = 0, size: int = 0) -> Iterator[tuple[int, int]]:
    """The ``(start, end)`` spans of consecutive pieces of ``text[start:]``
    of about ``size`` (default _CSV_CHUNK) characters, each cut just after
    a newline."""
    size = size or _CSV_CHUNK
    while start < len(text):
        end = text.find("\n", start + size) + 1 or len(text)
        yield start, end
        start = end


def _csv_header_end(text: str) -> int:
    """Where the rows after the header begin: just past the first row of
    ``text`` that is not blank if that row is a header, else 0."""
    for start, end in _csv_chunks(text, 0, 64):
        for row in text[start:end].splitlines(keepends=True):
            start += len(row)
            if row.strip():
                return start if row.strip().replace(" ", "") in _CSV_HEADERS else 0
    return 0


def _parse_csv_chunk(text: str, span: tuple[int, int]) -> tuple[list, list] | None:
    """The probabilities and utilities of the CSV rows in ``text[start:end]``
    converted in C, or None if the C pass refuses them.

    Blank rows are dropped; when every other row holds one comma, the cells
    are split and converted by ``float``.  ``float`` strips the whitespace
    ``str.strip`` does, except U+001F, which it refuses, so whenever every
    cell converts the values equal those of the per-row code.  Another
    count of commas, or a cell ``float`` refuses, is a refusal.
    """
    rows = text[span[0]:span[1]].splitlines()
    commas = set(map(str.count, rows, repeat(",")))
    if 0 in commas:
        rows = list(filter(str.strip, rows))
        commas = set(map(str.count, rows, repeat(",")))
    if not commas <= {1}:
        return None
    cells = ",".join(rows).split(",") if rows else []
    try:
        return list(map(float, cells[0::2])), list(map(float, cells[1::2]))
    except ValueError:
        return None


def _parse_csv_rows(
    rows: list[str], path: str, probs: list[float], utils: list[float]
) -> None:
    """Append the values of ``rows``, CSV rows without a header, to
    ``probs`` and ``utils`` row by row; the first bad row raises
    ValidationError.  Blank rows are skipped, and rows are numbered on
    from those already in ``probs``."""
    for row in filter(None, map(str.strip, rows)):
        parts = [c.strip() for c in row.split(",")]
        if len(parts) != 2:
            raise ValidationError(
                f"{path}: row {len(probs) + 1} must have two columns (p,u), got {row!r}"
            )
        try:
            p, u = float(parts[0]), float(parts[1])
        except ValueError:
            raise ValidationError(
                f"{path}: row {len(probs) + 1} has non-numeric entries: {row!r}"
            ) from None
        probs.append(p)
        utils.append(u)


def _fmt(value: float, digits: int) -> str:
    return format(value, f".{digits}g")


def _render_floats(values: Sequence[float], digits: int, sep: str, lead: str = "") -> str:
    """``lead + sep.join(format(x, f".{digits}g") for x in values)`` as one
    ``%`` pass: ``%`` and ``format`` share CPython's double-to-string call,
    so the text is byte-equal, without a Python-level call per entry."""
    return (lead + sep.join([f"%.{digits}g"] * len(values))) % tuple(values)


#: Entries per slice of :func:`_render_slices`.
_RENDER_CHUNK = 65536


def _render_slice(piece: tuple[Sequence[float], int], digits: int, sep: str) -> str:
    """``_render_floats`` of ``vector[start:start + _RENDER_CHUNK]``, for
    ``piece = (vector, start)``, after ``sep`` unless ``start`` is 0."""
    vector, start = piece
    return _render_floats(vector[start:start + _RENDER_CHUNK], digits, sep, sep if start else "")


def _render_slices(vectors: Sequence[Sequence[float]], digits: int, sep: str) -> Iterator[str]:
    """The text of ``_render_floats(vector, digits, sep)`` for each of
    ``vectors`` in pieces, vector after vector: the renderings of its
    consecutive slices of _RENDER_CHUNK entries, so that no text of a whole
    vector is built.  More than one slice of entries in all is rendered by
    two processes (see :func:`_split_map`)."""
    slices = [(v, start) for v in vectors for start in range(0, len(v), _RENDER_CHUNK)]
    render = partial(_render_slice, digits=digits, sep=sep)
    split = _worth_splitting(sum(map(len, vectors)), _RENDER_CHUNK)
    yield from (_split_map if split else map)(render, slices)


def _scheme_json_chunks(scheme: UtilityInformationScheme) -> Iterator[str]:
    """The text of :func:`render_scheme_json` in pieces."""
    vectors = {"probabilities": scheme.dist.probs, "utilities": scheme.util.utils}
    texts = _render_slices(list(vectors.values()), 17, ", ")
    yield "{\n"
    for key, values in vectors.items():
        yield f'  "{key}": ['
        yield from islice(texts, -(-len(values) // _RENDER_CHUNK))
        yield "],\n"
    yield f'  "kind": {json.dumps(scheme.dist.kind.value)}'
    if scheme.labels is not None:
        labels = ", ".join(json.dumps(lab) for lab in scheme.labels)
        yield f',\n  "labels": [{labels}]'
    yield "\n}\n"


def render_scheme_json(scheme: UtilityInformationScheme) -> str:
    """Canonical JSON for a scheme: fixed key order, 17 significant digits.

    17 digits make the decimal rendering round-trip float64 exactly, so
    normalizing twice is byte-for-byte stable.
    """
    return "".join(_scheme_json_chunks(scheme))


#: The parameter flag and kind of each family the CLI names.  The flag
#: names the ParametricFamily field it sets; the kind's value names the
#: family's constructor on ParametricFamily.
_FAMILIES = {
    "uniform": ("--n", FamilyKind.UNIFORM),
    "geometric": ("--p", FamilyKind.GEOMETRIC),
    "beta-power": ("--beta", FamilyKind.BETA_POWER),
}


def _family_from_args(args: argparse.Namespace) -> ParametricFamily:
    name = args.family
    wanted, kind = _FAMILIES[name]
    for flag, _ in _FAMILIES.values():
        present = getattr(args, flag[2:]) is not None
        if flag == wanted and not present:
            raise ValidationError(f"family {name!r} requires {flag}")
        if flag != wanted and present:
            raise ValidationError(f"family {name!r} does not take {flag}")
    return getattr(ParametricFamily, kind.value)(getattr(args, wanted[2:]))


def _check_digits(value: str) -> int:
    try:
        digits = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"digits must be an integer, got {value!r}")
    if not 1 <= digits <= MAX_DIGITS:
        raise argparse.ArgumentTypeError(f"digits must be in 1..{MAX_DIGITS}, got {digits}")
    return digits


def _cmd_eval(args: argparse.Namespace) -> int:
    check_t(args.t, args.extended_t)
    scheme = _load_scheme(args.input, args.format)
    value = evaluate_measure(Measure(args.measure), scheme, args.t, extended=args.extended_t)
    print(_fmt(value, args.digits))
    return 0


def _cmd_entropy(args: argparse.Namespace) -> int:
    scheme = _load_scheme(args.input, args.format)
    print(_fmt(weighted_entropy(scheme, LogBase(args.base)), args.digits))
    return 0


def _cmd_moments(args: argparse.Namespace) -> int:
    if args.r_max < 1 or args.r_max > MAX_MOMENT_ORDER:
        raise ValidationError(
            f"--r-max must be in 1..{MAX_MOMENT_ORDER}, got {args.r_max}"
        )
    scheme = _load_scheme(args.input, args.format)
    # each line is printed as its order is summed, so an order that
    # overflows still leaves the lower ones on stdout
    orders = range(args.r_max + 1)
    for r, moment in enumerate(weighted_self_information_moments(scheme, orders)):
        print(f"{r}\t{_fmt(moment, args.digits)}")
    return 0


def _scheme_for_curve(args: argparse.Namespace) -> UtilityInformationScheme:
    if args.input is not None and args.family is not None:
        raise ValidationError("give either --input or --family, not both")
    if args.input is not None:
        for flag in ("--n", "--p", "--beta", "--u", "--truncation"):
            if getattr(args, flag[2:]) is not None:
                raise ValidationError(f"{flag} needs --family, not --input")
        return _load_scheme(args.input, args.format)
    if args.family is not None:
        family = _family_from_args(args)
        if family.kind is FamilyKind.UNIFORM and args.truncation is not None:
            raise ValidationError("family 'uniform' does not take --truncation")
        dist = realize_family(family, args.truncation)
        return constant_utility_scheme(dist, 1.0 if args.u is None else args.u)
    raise ValidationError("curve needs a scheme: pass --input or --family")


def _cmd_curve(args: argparse.Namespace) -> int:
    try:
        measures = tuple(Measure(tok.strip()) for tok in args.measures.split(","))
    except ValueError:
        raise ValidationError(
            f"--measures must name measures from "
            f"{[m.value for m in Measure]}, got {args.measures!r}"
        ) from None
    check_curve_grid(args.t_min, args.t_max, args.steps, args.extended_t)
    request = CurveRequest(
        scheme=_scheme_for_curve(args),
        t_min=args.t_min,
        t_max=args.t_max,
        steps=args.steps,
        measures=measures,
        extended=args.extended_t,
    )
    write_curve_csv(request, args.out)
    return 0


def _cmd_closed_form(args: argparse.Namespace) -> int:
    family = _family_from_args(args)
    if args.entropy and args.t is not None:
        raise ValidationError("give either --t or --entropy, not both")
    if not args.entropy and args.t is None:
        raise ValidationError("closed-form needs --t for an IGF value or --entropy")
    if args.extended_t and args.t is None:
        raise ValidationError("--extended-t needs --t")
    value = closed_form_value(family, args.u, args.t, extended=args.extended_t)
    if not args.check:
        print(_fmt(value, args.digits))
        return 0
    direct = direct_sum_value(family, args.u, args.t, extended=args.extended_t)
    print(f"closed_form: {_fmt(value, args.digits)}")
    print(f"direct: {_fmt(direct, args.digits)}")
    print(f"abs_diff: {format(abs(value - direct), '.6e')}")
    return 0


def _cmd_escort(args: argparse.Namespace) -> int:
    if args.verify_identity and args.t is None:
        raise ValidationError("--verify-identity needs --t")
    if args.u is not None and args.t is None:
        raise ValidationError("--u needs --t")
    if args.extended_t and args.t is None:
        raise ValidationError("--extended-t needs --t")
    if args.t is not None:
        check_t(args.t, args.extended_t)
    # the checks of escort_transform and constant_utility_scheme, made
    # before the file is read
    check_open(args.beta, "escort power beta", 0)
    if args.u is not None:
        UtilityDistribution((args.u,))
    scheme = _load_scheme(args.input, args.format)
    u = 1.0 if args.u is None else args.u
    # every value is computed before the first line is printed, so a
    # failing command leaves stdout empty
    pair = escort_transform(scheme.dist, args.beta)
    if args.t is not None:
        value = weighted_igf(
            constant_utility_scheme(pair.normalized, u), args.t, extended=args.extended_t
        )
    if args.verify_identity:
        report = verify_scaling_identity(
            scheme.dist, u, args.beta, args.t, extended=args.extended_t, escort=(pair, value)
        )
    sys.stdout.write("escort: ")
    sys.stdout.writelines(_render_slices([pair.normalized.probs], args.digits, " "))
    sys.stdout.write("\n")
    print(f"mass: {_fmt(pair.mass, args.digits)}")
    if args.t is not None:
        print(f"generalized_igf: {_fmt(value, args.digits)}")
    if not args.verify_identity:
        return 0
    print(f"lhs: {_fmt(report.lhs, args.digits)}")
    print(f"rhs: {_fmt(report.rhs, args.digits)}")
    print(f"abs_diff: {format(report.abs_diff, '.6e')}")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 4


def _cmd_normalize(args: argparse.Namespace) -> int:
    scheme = _load_scheme(args.input, args.format)
    sys.stdout.writelines(_scheme_json_chunks(scheme))
    return 0


def _add_shared(parser: argparse.ArgumentParser, *flags: str) -> None:
    """Declare the shared ``flags`` that a subcommand's handler reads, so
    argparse refuses every other one with exit 2."""
    options = {
        "--input": dict(help="scheme file to read"),
        "--format": dict(
            choices=("json", "csv"), default="json", help="input file format (default json)"
        ),
        "--base": dict(
            choices=[b.value for b in LogBase], default=LogBase.NATURAL.value,
            help="logarithm base for entropy output (default e)",
        ),
        "--extended-t": dict(
            action="store_true", help="allow t below 1 wherever every term stays defined"
        ),
        "--digits": dict(
            type=_check_digits, default=DEFAULT_DIGITS,
            help=f"significant digits to print (1..{MAX_DIGITS}, default {DEFAULT_DIGITS})",
        ),
    }
    for flag in flags:
        parser.add_argument(flag, **options[flag])


def _add_family_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, help="outcome count for the uniform family")
    parser.add_argument("--p", type=float, help="ratio for the geometric family")
    parser.add_argument("--beta", type=float, help="exponent for the beta-power family")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="igf",
        description="Utility-weighted information generating functions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one generating function at one t")
    _add_shared(p_eval, "--input", "--format", "--extended-t", "--digits")
    p_eval.add_argument(
        "--measure", choices=[m.value for m in Measure], default=Measure.WEIGHTED.value
    )
    p_eval.add_argument("--t", type=float, required=True)
    p_eval.set_defaults(handler=_cmd_eval)

    p_entropy = sub.add_parser("entropy", help="weighted entropy of a scheme")
    _add_shared(p_entropy, "--input", "--format", "--base", "--digits")
    p_entropy.set_defaults(handler=_cmd_entropy)

    p_moments = sub.add_parser("moments", help="weighted self-information moments")
    _add_shared(p_moments, "--input", "--format", "--digits")
    p_moments.add_argument("--r-max", type=int, required=True)
    p_moments.set_defaults(handler=_cmd_moments)

    p_curve = sub.add_parser("curve", help="sample measures over a t grid into CSV")
    _add_shared(p_curve, "--input", "--format", "--extended-t")
    p_curve.add_argument("--family", choices=_FAMILIES)
    _add_family_flags(p_curve)
    p_curve.add_argument("--u", type=float, help="constant utility of --family (default 1)")
    p_curve.add_argument(
        "--truncation", type=int,
        help="number of leading outcomes for infinite-support families",
    )
    p_curve.add_argument("--t-min", type=float, default=1.0)
    p_curve.add_argument("--t-max", type=float, default=3.0)
    p_curve.add_argument("--steps", type=int, default=101)
    p_curve.add_argument(
        "--measures", default=Measure.WEIGHTED.value,
        help="comma-separated subset of " + ",".join(m.value for m in Measure),
    )
    p_curve.add_argument("--out", required=True, help="CSV file to write")
    p_curve.set_defaults(handler=_cmd_curve)

    p_cf = sub.add_parser("closed-form", help="closed-form family values")
    _add_shared(p_cf, "--extended-t", "--digits")
    p_cf.add_argument("family", choices=_FAMILIES)
    _add_family_flags(p_cf)
    p_cf.add_argument("--u", type=float, default=1.0, help="constant utility (default 1)")
    p_cf.add_argument("--t", type=float)
    p_cf.add_argument("--entropy", action="store_true")
    p_cf.add_argument(
        "--check", action="store_true",
        help="also print a direct-summation value and the difference",
    )
    p_cf.set_defaults(handler=_cmd_closed_form)

    p_escort = sub.add_parser("escort", help="escort transform and scaling identity")
    _add_shared(p_escort, "--input", "--format", "--extended-t", "--digits")
    p_escort.add_argument("--beta", type=float, required=True)
    p_escort.add_argument("--u", type=float, help="constant utility at --t (default 1)")
    p_escort.add_argument("--t", type=float)
    p_escort.add_argument("--verify-identity", action="store_true")
    p_escort.set_defaults(handler=_cmd_escort)

    p_norm = sub.add_parser("normalize", help="re-emit a scheme in canonical JSON")
    _add_shared(p_norm, "--input", "--format")
    p_norm.set_defaults(handler=_cmd_normalize)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (DomainError, ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, DomainError) else 2


if __name__ == "__main__":
    sys.exit(main())
