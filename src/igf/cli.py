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
import gc
import json
import os
import re
import sys
from functools import partial
from itertools import repeat
from typing import Callable, Collection, Iterator, Sequence

from .closed_forms import closed_form_value, direct_sum_value
from .distributions import (
    FamilyKind,
    ParametricFamily,
    UtilityInformationScheme,
    constant_utility_scheme,
    nonzero_terms,
    realize_family,
    scheme_from_dict,
)
from .errors import DomainError, ValidationError, check_open, check_t
from .escort import escort_transform, unnormalized_power_igf, verify_scaling_identity
from .generating_functions import (
    LogBase,
    Measure,
    check_curve_grid,
    curve_grid,
    curve_values,
    weighted_entropy,
    weighted_self_information_moments,
)

DEFAULT_DIGITS = 12
MAX_DIGITS = 17
MAX_MOMENT_ORDER = 8


#: Nonzero terms times grid points above which :func:`render_curve_csv`
#: splits a curve: measured, see the README.
_SPLIT_CURVE_WORK = 100_000
#: Nonzero terms times grid points above which :func:`_check_curve_work`
#: refuses a curve, up to about 20-32 s of one CPU: measured, see the README.
_MAX_CURVE_WORK = 100_000_000


def _check_curve_work(terms: int, points: int) -> None:
    """Refuse, with ValidationError, a curve above _MAX_CURVE_WORK term-points."""
    if terms * points > _MAX_CURVE_WORK:
        raise ValidationError(
            f"a curve of {terms} nonzero terms at {points} grid points is {terms * points} "
            f"term-points of work, above the bound of {_MAX_CURVE_WORK}"
        )


def _split_cpus(work: int, min_work: int) -> Collection[int]:
    """The CPUs for :func:`_split_map` of ``work`` units: none unless there
    are more than ``min_work``, a fork, two or more CPUs this process may
    run on, and no other thread, which a forked child would not have."""
    if work <= min_work or not hasattr(os, "fork"):
        return set()
    try:
        cpus = os.sched_getaffinity(0)
    except AttributeError:  # not on every platform
        cpus = range(os.cpu_count() or 1)
    import threading

    return cpus if len(cpus) >= 2 and threading.active_count() == 1 else set()


def _running_cpu() -> int:
    """The CPU this process last ran on: field 39 of ``/proc/self/stat``
    (Linux).  Field 2, the command name in parentheses, may hold spaces and
    parentheses, so fields are counted from after its last ``)``."""
    with open("/proc/self/stat", "rb") as fh:
        return int(fh.read().rpartition(b")")[2].split()[36])


def _split_map(fn: Callable, items: Sequence, cpus: Collection[int]) -> Iterator:
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
    with no ``cpus`` (see :func:`_split_cpus`) or a failed fork the map is
    serial.  On Linux the child first moves off the CPU this process ran on
    when it forked, then takes back all of ``cpus``.
    """
    import marshal
    import signal

    pid = -1
    if cpus:
        try:
            away = set(cpus) - {_running_cpu()}
        except (OSError, ValueError):  # no /proc: not Linux
            away = None
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:
            os.close(read_fd)
            os.close(write_fd)
    if pid < 0:
        yield from map(fn, items)
        return
    if pid == 0:
        try:
            if away:
                # a new child often shares its parent's CPU for its first
                # 0.2-0.4 s; it starts on another one, and is not left
                # pinned there
                try:
                    os.sched_setaffinity(0, away)
                    os.sched_setaffinity(0, cpus)
                except (OSError, ValueError):
                    pass
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


def render_curve_csv(
    scheme: UtilityInformationScheme,
    ts: Sequence[float],
    measures: Sequence[Measure],
    extended: bool,
) -> str:
    """CSV text of ``measures`` on ``scheme`` over the :func:`curve_grid`
    ``ts``: header row, then one row per grid point.

    Floats are rendered with ``repr`` (shortest round-trip form) and rows end
    with a bare newline, so identical requests produce byte-identical output.
    The grid is evaluated in two halves; above _SPLIT_CURVE_WORK nonzero
    terms times grid points, the second half goes to a second process (see
    :func:`_split_map`).  This function refuses no curve for its work:
    ``curve`` checks _MAX_CURVE_WORK before it builds the grid.
    """
    work = (len(scheme) - scheme.dist.probs.count(0.0)) * len(ts)
    h = (len(ts) + 1) // 2
    evaluate = partial(curve_values, scheme, measures=measures, extended=extended)
    halves = _split_map(evaluate, [ts[:h], ts[h:]], _split_cpus(work, _SPLIT_CURVE_WORK))
    rows = [row for half in halves for row in half]
    lines = ["t," + ",".join(m.value for m in measures)]
    for t, values in zip(ts, rows):
        lines.append(repr(t) + "," + ",".join(repr(v) for v in values))
    return "\n".join(lines) + "\n"


def _load_scheme(path: str | None, fmt: str) -> UtilityInformationScheme:
    if path is None:
        raise ValidationError("an --input file is required for this command")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None
    if fmt == "json":
        try:
            doc = _parse_json(text)
        except (ValueError, RecursionError) as exc:  # malformed, too deep, or a huge int
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
#: Characters per piece of :func:`_cuts`: a chunk of CSV text, some 50k
#: rows of 17-digit values, or a piece of a JSON number array.
_CSV_CHUNK = 1 << 21
_CSV_HEADERS = ("p,u", "probability,utility")
_JSON_SPACE = re.compile(r"[ \t\n\r]*")


def _cuts(text: str, sep: str, start: int, end: int, size: int = 0) -> Iterator[tuple[int, int]]:
    """The ``(start, end)`` spans of consecutive pieces of ``text[start:end]``
    of about ``size`` (default _CSV_CHUNK) characters, each cut just after
    a ``sep`` or at ``end``."""
    size = size or _CSV_CHUNK
    while start < end:
        cut = text.find(sep, start + size, end) + 1 or end
        yield start, cut
        start = cut


def _parse_json(text: str) -> object:
    """``json.loads(text)``; above _SPLIT_PARSE characters, on two CPUs.

    A large text that is a JSON object is walked key by key with
    ``JSONDecoder.raw_decode``.  A value that starts with ``[`` and holds
    no ``"``, ``[`` or ``{`` before its first ``]`` is a flat array: its
    elements are numbers or constants, which hold no comma, so its commas
    are exactly its separators.  Such an array is cut by :func:`_cuts`
    after commas, which each piece but the last drops, and each piece is
    parsed by :func:`_parse_json_piece`, which also reads CSV chunks, in
    this process or a forked child.  The array is valid if and only if
    every piece is a valid non-empty array, and its elements are then the
    pieces' elements in order.  Any other value is parsed in place.  On
    anything else (a top level that is not an object, a duplicate key, a
    bad separator, trailing text, a piece that fails or is empty) the whole
    text goes to ``json.loads``, which gives its value or its error.
    """
    cpus = _split_cpus(len(text), _SPLIT_PARSE)
    if not cpus:
        return json.loads(text)
    try:
        doc, pieces = _json_walk(text)
    except (ValueError, RecursionError):
        return json.loads(text)
    parts = _split_map(partial(_parse_json_piece, text), [span for _, span in pieces], cpus)
    try:
        for (key, _), part in zip(pieces, parts):
            if not part:
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
            pieces += [(key, (a, b - (b < close))) for a, b in _cuts(text, ",", i + 1, close)]
            i = close + 1
        else:
            doc[key], i = decode(text, i)
        i = space(text, i).end()
        sep = text[i:i + 1]
        i += 1
    if sep != "}" or space(text, i).end() != len(text):
        raise ValueError
    return doc, pieces


def _parse_json_piece(text: str, span: tuple[int, int] | None = None) -> list | None:
    """The elements of ``text[start:end]``, or of all of ``text`` without a
    ``span``, read as the inside of a JSON array, or None if that array is
    not valid JSON (nested past the stack included)."""
    try:
        return json.loads("[" + (text if span is None else text[span[0]:span[1]]) + "]")
    except (ValueError, RecursionError):
        return None


def _parse_csv(text: str, path: str) -> dict[str, list]:
    """The scheme document of CSV ``text``: a ``p,u`` row per outcome,
    after an optional header row, the first row that is not blank.

    The header is found first; the rows after it are parsed in the chunks
    of :func:`_cuts`, each cut just after a newline, so no list of every
    row is held.  Each chunk is read whole by
    :func:`_parse_csv_chunk`, above _SPLIT_PARSE characters every other
    one in a forked child (see :func:`_split_map`).  This process takes the
    values in order; the first chunk that names a bad row ends the parse
    with a message that numbers it among the rows, header and blanks not counted.
    """
    probs: list = []
    utils: list = []
    spans = list(_cuts(text, "\n", _csv_header_end(text), len(text)))
    cpus = _split_cpus(len(text), _SPLIT_PARSE)
    parsed = _split_map(partial(_parse_csv_chunk, text), spans, cpus)
    try:
        for chunk_probs, chunk_utils, error in parsed:
            probs += chunk_probs
            utils += chunk_utils
            if error is not None:
                raise ValidationError(f"{path}: row {len(probs) + 1} {error}")
    finally:
        parsed.close()
    return {"probabilities": probs, "utilities": utils}


def _csv_header_end(text: str) -> int:
    """Where the rows after the header begin: just past the first row of
    ``text`` that is not blank if that row is a header, else 0."""
    for start, end in _cuts(text, "\n", 0, len(text), 64):
        for row in text[start:end].splitlines(keepends=True):
            start += len(row)
            if row.strip():
                return start if row.strip().replace(" ", "") in _CSV_HEADERS else 0
    return 0


def _parse_csv_chunk(text: str, span: tuple[int, int]) -> tuple[list, list, str | None]:
    """The probabilities and utilities of the CSV rows in ``text[start:end]``
    up to the first bad one, and the message of that row after its number.

    Blank rows are dropped; when every other row holds one comma, the rows
    joined by commas are read by :func:`_parse_json_piece`, as a piece of a
    JSON array.  The rows are each two JSON numbers exactly when that array
    is valid and holds only ints and floats, since a bracket, brace or quote
    gives another element or invalid JSON; the cells then read as they do
    in a JSON document.  Otherwise :func:`_parse_csv_rows` finds the bad row.
    """
    rows = text[span[0]:span[1]].splitlines()
    commas = set(map(str.count, rows, repeat(",")))
    if 0 in commas:
        rows = list(filter(str.strip, rows))
        commas = set(map(str.count, rows, repeat(",")))
    cells = _parse_json_piece(",".join(rows)) if commas <= {1} else None
    if cells is not None and set(map(type, cells)) <= {int, float}:
        return cells[0::2], cells[1::2], None
    return _parse_csv_rows(rows)


def _parse_csv_rows(rows: list[str]) -> tuple[list, list, str | None]:
    """:func:`_parse_csv_chunk` of ``rows``, CSV rows without a header, read
    row by row with the same reader: blank rows are skipped, and the first
    bad row stops it.  An ASCII row is named without the spaces and tabs
    around it, any other row as it is."""
    probs: list = []
    utils: list = []
    for line in rows:
        row = line.strip()
        if not row:
            continue
        if row.count(",") != 1:
            return probs, utils, f"must have two columns (p,u), got {_shown_row(row)}"
        cells = _parse_json_piece(line)
        if cells is None or not set(map(type, cells)) <= {int, float}:
            shown = line.strip(" \t") if line.isascii() else line
            return probs, utils, f"has non-numeric entries: {_shown_row(shown)}"
        probs.append(cells[0])
        utils.append(cells[1])
    return probs, utils, None


def _shown_row(row: str) -> str:
    """``row`` as an error names it: its repr, cut after 80 characters."""
    return repr(row) if len(row) <= 80 else f"{row[:80]!r}... ({len(row)} characters)"


def _fmt(value: float, digits: int) -> str:
    return format(value, f".{digits}g")


def _render_floats(values: Sequence[float], digits: int, sep: str, lead: str = "") -> str:
    """``lead + sep.join(format(x, f".{digits}g") for x in values)`` as one
    ``%`` pass: ``%`` and ``format`` share CPython's double-to-string call,
    so the text is byte-equal, without a Python-level call per entry."""
    return (lead + sep.join([f"%.{digits}g"] * len(values))) % tuple(values)


#: Entries per slice of :func:`_render_slices`.
_RENDER_CHUNK = 65536


def _render_slice(piece: tuple[str, Sequence[float], int, int], digits: int, sep: str) -> str:
    """``_render_floats(vector[start:stop], digits, sep, lead)`` for
    ``piece = (lead, vector, start, stop)``."""
    lead, vector, start, stop = piece
    return _render_floats(vector[start:stop], digits, sep, lead)


def _render_slices(
    vectors: Sequence[tuple[str, Sequence[float]]], digits: int, sep: str
) -> Iterator[str]:
    """The text of ``_render_floats(vector, digits, sep, lead)`` for each
    ``(lead, vector)`` of ``vectors`` in pieces: the renderings of its
    consecutive slices of _RENDER_CHUNK entries, each after ``sep`` but the
    first, so that no text of a whole vector is built.  More than one slice
    of entries in all is rendered by two processes (see :func:`_split_map`)."""
    size = _RENDER_CHUNK
    slices = [
        (sep if i else lead, v, i, i + size) for lead, v in vectors for i in range(0, len(v), size)
    ]
    render = partial(_render_slice, digits=digits, sep=sep)
    yield from _split_map(render, slices, _split_cpus(sum(len(v) for _, v in vectors), size))


def _scheme_json_chunks(scheme: UtilityInformationScheme) -> Iterator[str]:
    """The text of :func:`render_scheme_json` in pieces."""
    leads = '{\n  "probabilities": [', '],\n  "utilities": ['
    vectors = scheme.dist.probs, scheme.util.utils
    yield from _render_slices(list(zip(leads, vectors)), 17, ", ")
    yield f'],\n  "kind": {json.dumps(scheme.dist.kind.value)}'
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


#: The parameter flag, kind, flag type and flag help of each family the CLI
#: names.  The flag names the ParametricFamily field it sets.
_FAMILIES = {
    "uniform": ("--n", FamilyKind.UNIFORM, int, "outcome count"),
    "geometric": ("--p", FamilyKind.GEOMETRIC, float, "ratio"),
    "beta-power": ("--beta", FamilyKind.BETA_POWER, float, "exponent"),
}


def _family_from_args(args: argparse.Namespace) -> ParametricFamily:
    name = args.family
    wanted, kind, _, _ = _FAMILIES[name]
    for flag, *_ in _FAMILIES.values():
        if (getattr(args, flag[2:]) is not None) != (flag == wanted):
            verb = "requires" if flag == wanted else "does not take"
            raise ValidationError(f"family {name!r} {verb} {flag}")
    return ParametricFamily(kind, **{wanted[2:]: getattr(args, wanted[2:])})


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
    measure = Measure(args.measure)
    [(value,)] = curve_values(scheme, (args.t,), (measure,), extended=args.extended_t)
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
        for flag in [flag for flag, *_ in _FAMILIES.values()] + ["--u", "--truncation"]:
            if getattr(args, flag[2:]) is not None:
                raise ValidationError(f"{flag} needs --family, not --input")
        scheme = _load_scheme(args.input, args.format)
        _check_curve_work(len(scheme) - scheme.dist.probs.count(0.0), args.steps)
        return scheme
    if args.family is not None:
        family = _family_from_args(args)
        # the check of constant_utility_scheme, made before the family is built
        u = 1.0 if args.u is None else check_open(args.u, "constant utility u", 0)
        if family.kind is FamilyKind.UNIFORM and args.truncation is not None:
            raise ValidationError("family 'uniform' does not take --truncation")
        _check_curve_work(nonzero_terms(family, args.truncation), args.steps)
        return constant_utility_scheme(realize_family(family, args.truncation), u)
    raise ValidationError("curve needs a scheme: pass --input or --family")


def _cmd_curve(args: argparse.Namespace) -> int:
    try:
        chosen = {Measure(tok.strip()) for tok in args.measures.split(",")}
    except ValueError:
        raise ValidationError(
            f"--measures must name measures from "
            f"{[m.value for m in Measure]}, got {args.measures!r}"
        ) from None
    # canonical column order, each measure once
    measures = tuple(m for m in Measure if m in chosen)
    # the grid is checked first and built last, once the work fits
    check_curve_grid(args.t_min, args.t_max, args.steps, args.extended_t)
    scheme = _scheme_for_curve(args)  # with its work checked
    ts = curve_grid(args.t_min, args.t_max, args.steps, args.extended_t)
    text = render_curve_csv(scheme, ts, measures, args.extended_t)
    try:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(f"cannot write {args.out}: {exc}") from None
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
    # the checks of escort_transform and unnormalized_power_igf, made
    # before the file is read
    check_open(args.beta, "escort power beta", 0)
    u = 1.0 if args.u is None else check_open(args.u, "constant utility u", 0)
    scheme = _load_scheme(args.input, args.format)
    # every value is computed before the first line is printed, so a
    # failing command leaves stdout empty
    pair = escort_transform(scheme.dist, args.beta)
    if args.t is not None:
        escort = pair.normalized  # at beta = 1 the powered sum is its weighted IGF under u
        try:
            value = unnormalized_power_igf(escort, u, 1.0, args.t, extended=args.extended_t)
        except DomainError as exc:  # its terms are not the file's
            raise DomainError(f"escort distribution: {exc}") from None
    if args.verify_identity:
        report = verify_scaling_identity(
            scheme.dist, u, args.beta, args.t, extended=args.extended_t, escort=(pair, value)
        )
    sys.stdout.writelines(_render_slices([("escort: ", pair.normalized.probs)], args.digits, " "))
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
    for name, (flag, _, parse, what) in _FAMILIES.items():
        parser.add_argument(flag, type=parse, help=f"{what} for the {name} family")


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


def console_main() -> None:
    """The process entry of the CLI: ``sys.exit(main())``, then
    ``gc.freeze()``, on every way out, usage errors and ``--help`` included.

    The freeze moves every object the collector tracks into its permanent
    generation, which the interpreter's final collection skips, so the
    process does not spend about 9 ms at exit collecting the imported
    modules, whose memory the OS frees anyway.  Exit handlers, the final flush of stdout and
    stderr and the exit code are unchanged.  ``main()`` does not freeze, so
    a caller that runs it in-process keeps a normal collector.
    """
    try:
        sys.exit(main())
    finally:
        gc.freeze()


if __name__ == "__main__":
    console_main()
