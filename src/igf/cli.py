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
import sys
from itertools import repeat
from typing import Iterator, Sequence

from .closed_forms import closed_form_value, direct_sum_value
from .distributions import (
    FamilyKind,
    ParametricFamily,
    UtilityInformationScheme,
    constant_utility_scheme,
    realize_family,
    scheme_from_dict,
)
from .errors import DomainError, ValidationError
from .escort import escort_transform, verify_scaling_identity
from .generating_functions import (
    CurveRequest,
    LogBase,
    Measure,
    evaluate_curve,
    evaluate_measure,
    weighted_entropy,
    weighted_igf,
    weighted_self_information_moments,
)

DEFAULT_DIGITS = 12
MAX_DIGITS = 17
MAX_MOMENT_ORDER = 8


def render_curve_csv(request: CurveRequest) -> str:
    """CSV text for a curve request: header row, then one row per grid point.

    Floats are rendered with ``repr`` (shortest round-trip form) and rows end
    with a bare newline, so identical requests produce byte-identical output.
    """
    lines = ["t," + ",".join(m.value for m in request.measures)]
    for t, values in evaluate_curve(request):
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
            doc = json.loads(text)
        except ValueError as exc:  # malformed, or an int past the digit limit
            raise ValidationError(f"{path} is not valid JSON: {exc}") from None
    else:
        doc = _parse_csv(text, path)
    # at a million entries the text is as large as the parsed vectors, and
    # nothing needs it once they are parsed
    del text
    return scheme_from_dict(doc)


#: Characters of CSV text per chunk of :func:`_parse_csv`, some 50k rows of
#: 17-digit values.
_CSV_CHUNK = 1 << 21
_CSV_HEADERS = ("p,u", "probability,utility")


def _parse_csv(text: str, path: str) -> dict[str, list[float]]:
    """The scheme document of CSV ``text``: a ``p,u`` row per outcome,
    after an optional header row.

    The text is parsed in chunks of about _CSV_CHUNK characters, each cut
    just after a newline, so no list of every row is held.  Blank rows are
    dropped, as the per-row loop :func:`_parse_csv_rows` drops them; every
    other row of a chunk must hold one comma, and then the cells of the
    whole chunk are split and converted in C.  ``float`` strips the
    whitespace ``str.strip`` does, except U+001F, which it refuses, so
    whenever every cell converts the values equal those of the per-row
    loop.  Another count of commas or a cell ``float`` refuses sends the
    text from that chunk on through that loop, whose messages name the row;
    the whole text goes while no row is parsed, so that a header row after
    a first chunk of blank rows is still taken as the header.
    """
    probs: list[float] = []
    utils: list[float] = []
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CSV_CHUNK) + 1 or len(text)
        rows = text[start:end].splitlines()
        commas = set(map(str.count, rows, repeat(",")))
        if 0 in commas:
            rows = list(filter(str.strip, rows))
            commas = set(map(str.count, rows, repeat(",")))
        if start == 0 and rows and rows[0].strip().replace(" ", "") in _CSV_HEADERS:
            del rows[0]
        if not commas <= {1}:
            break
        cells = ",".join(rows).split(",") if rows else []
        parsed = len(probs)
        try:
            probs.extend(map(float, cells[0::2]))
            utils.extend(map(float, cells[1::2]))
        except ValueError:
            del probs[parsed:], utils[parsed:]
            break
        start = end
    else:
        return {"probabilities": probs, "utilities": utils}
    return _parse_csv_rows(text[start:] if probs else text, path, probs, utils)


def _parse_csv_rows(
    text: str, path: str, probs: list[float] | None = None, utils: list[float] | None = None
) -> dict[str, list[float]]:
    """The scheme document of CSV ``text``, parsed row by row.  The rows
    are appended to ``probs`` and ``utils``, which hold those of the text
    before ``text``: row numbers go on after them, and a header row is
    taken only while they are empty."""
    probs = [] if probs is None else probs
    utils = [] if utils is None else utils
    rows = [line.strip() for line in text.splitlines()]
    rows = [r for r in rows if r]
    if not probs and rows and rows[0].replace(" ", "") in _CSV_HEADERS:
        rows = rows[1:]
    for lineno, row in enumerate(rows, start=len(probs) + 1):
        parts = [c.strip() for c in row.split(",")]
        if len(parts) != 2:
            raise ValidationError(
                f"{path}: row {lineno} must have two columns (p,u), got {row!r}"
            )
        try:
            p, u = float(parts[0]), float(parts[1])
        except ValueError:
            raise ValidationError(
                f"{path}: row {lineno} has non-numeric entries: {row!r}"
            ) from None
        probs.append(p)
        utils.append(u)
    return {"probabilities": probs, "utilities": utils}


def _fmt(value: float, digits: int) -> str:
    return format(value, f".{digits}g")


def _render_floats(values: Sequence[float], digits: int, sep: str) -> str:
    """``sep.join(format(x, f".{digits}g") for x in values)`` as one ``%``
    pass: ``%`` and ``format`` share CPython's double-to-string call, so the
    text is byte-equal, without a Python-level call per entry."""
    return sep.join([f"%.{digits}g"] * len(values)) % tuple(values)


#: Entries per slice of :func:`_render_chunks`.
_RENDER_CHUNK = 65536


def _render_chunks(values: Sequence[float], digits: int, sep: str) -> Iterator[str]:
    """The text of ``_render_floats(values, digits, sep)`` in pieces: the
    renderings of consecutive slices of _RENDER_CHUNK entries, with ``sep``
    between them, so that no text of the whole vector is built."""
    for start in range(0, len(values), _RENDER_CHUNK):
        if start:
            yield sep
        yield _render_floats(values[start:start + _RENDER_CHUNK], digits, sep)


def _scheme_json_chunks(scheme: UtilityInformationScheme) -> Iterator[str]:
    """The text of :func:`render_scheme_json` in pieces."""
    yield "{\n"
    for key, values in (("probabilities", scheme.dist.probs), ("utilities", scheme.util.utils)):
        yield f'  "{key}": ['
        yield from _render_chunks(values, 17, ", ")
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
    scheme = _scheme_for_curve(args)
    try:
        measures = tuple(Measure(tok.strip()) for tok in args.measures.split(","))
    except ValueError:
        raise ValidationError(
            f"--measures must name measures from "
            f"{[m.value for m in Measure]}, got {args.measures!r}"
        ) from None
    request = CurveRequest(
        scheme=scheme,
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
    scheme = _load_scheme(args.input, args.format)
    if args.verify_identity and args.t is None:
        raise ValidationError("--verify-identity needs --t")
    if args.u is not None and args.t is None:
        raise ValidationError("--u needs --t")
    if args.extended_t and args.t is None:
        raise ValidationError("--extended-t needs --t")
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
    sys.stdout.writelines(_render_chunks(pair.normalized.probs, args.digits, " "))
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
