"""Workload definitions and the seeded input generator.

Load model, for every workload: a closed loop with one client.  The next
op starts only when the previous one has ended, and one benchmark
process issues every op.  A CLI op is one child ``python -m igf.cli ...`` run,
started after the previous child has exited, by the small launcher
process of ``launcher.py``, which also runs a speed probe of about a
millisecond on the child's CPU every 0.1 s.  The child inherits the
caller's environment unchanged (no thread-count variables are set: the
OpenBLAS threads numpy starts on import are part of what a user pays).
The seed decides every scheme, beta, p and t, so two runs of one seed do
identical work; the program only ever sees the generated files and
arguments.  Every op that prints values passes ``--digits 17`` so the
oracle sees the computed float, not a 12-digit rounding.

Workloads and why each was chosen
---------------------------------
cli_bulk_1e6
    One N=1e6 scheme (gamma(0.5) weights, ~1% zero probabilities,
    lognormal(0, 0.5) utilities), written once as JSON and once as CSV.
    A rotation runs ``eval --t 2`` (JSON), ``entropy --format csv``,
    ``moments --r-max 4``, ``normalize`` and
    ``escort --beta 2 --u 1 --t 2 --verify-identity``.  Per-entry layers
    dominate: file read, JSON/CSV parse, tuple validation, JSON rendering
    and escort normalisation.  The kernel is a minority share and import
    is under 10% of each op.
cli_curve_1e4
    A rotation of nine ops in a seeded order: ``curve`` on an N=1e4 JSON
    scheme with all three measures and 101 steps; ``curve --family
    beta-power --truncation 10000`` and ``curve --family geometric
    --truncation 10000`` with all three measures; and twice each
    ``closed-form beta-power --t``, ``closed-form beta-power --entropy`` and
    ``closed-form geometric --t --check``.  beta is drawn from [1.2, 3],
    p from [0.05, 0.95] and t from [1, 3], afresh for every op.  The curves
    (one is 303 passes over 1e4 terms) dominate the mean op, so kernel and
    summation move ops_per_s; the closed forms, where process start, import
    and a cold ``zeta`` cache are most of the cost, hold the median op.
    With three ops of each kind the median sat on the gap between the two
    groups and moved by 10-20% from run to run.  Parse and validation are
    light.
lib_small_64
    In-process.  One op is a full cycle on a fresh N=64 scheme (see
    ``lib_cycle``).  Fixed per-call cost dominates; there is no start-up
    or IO, and ``zeta`` answers from its cache after set-up, the reverse
    of cli_curve_1e4.  It catches a change that speeds N=1e6 up but makes
    N=64 slower, such as a numpy conversion added to every call.

Which end-to-end metric each per-layer metric should move
---------------------------------------------------------
cli.import_ms, cli.import_cpu_ms
    op_p50_ms and op_cpu_ms on cli_curve_1e4; next to nothing on
    cli_bulk_1e6; only setup_s on lib_small_64.
cli.main_ms, cli.self_ms (argparse, file read, CSV reader, printing)
    ops_per_s on cli_bulk_1e6 (the CSV op).
cli.parse_ms (json.loads as the CLI calls it)
    ops_per_s on cli_bulk_1e6; nothing on the other two.
cli.render_ms
    ops_per_s on cli_bulk_1e6 (normalize); a small share on cli_curve_1e4.
distributions.construct_ms, .calls, .entries
    ops_per_s and peak_rss_mb on cli_bulk_1e6; op_p50_ms on lib_small_64.
distributions.realize_ms
    ops_per_s on cli_curve_1e4 (the family curves).
generating_functions.self_ms, .calls, .terms, .ns_per_term
    ops_per_s on cli_curve_1e4 (the curves); the moments op on
    cli_bulk_1e6; op_p50_ms on lib_small_64, where per-call cost shows in
    ns_per_term.
escort.self_ms, .calls, .transforms_per_verify
    ops_per_s on cli_bulk_1e6 (the escort op, the slowest); op_p50_ms on
    lib_small_64.
closed_forms.zeta_ms, .zeta_calls, .zeta_cache_hit_ratio, .self_ms
    op_p50_ms on cli_curve_1e4, which is always cold; about nothing on
    lib_small_64, which is always warm.
<layer>.errors
    the failed-op ratio, everywhere.
trace.overhead_ratio
    nothing: it is a property of the trace.

Known gaps the drawn ranges leave unmeasured
--------------------------------------------
* ``closed-form geometric --check`` hangs as p -> 1: p = 1 - 1e-9 builds a
  4.3e9-term direct sum.  p is drawn only up to 0.95 here.
* ``weighted_igf`` underflows silently to 0.0 at t >> 3; t is drawn only
  from [1, 3].
A hang inside the drawn ranges is killed by the per-op timeout and counted
as a failed op.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

ALL_MEASURES = "weighted,golomb,hooda_bhaker"
CURVE_T_MIN, CURVE_T_MAX, CURVE_STEPS = 1.0, 3.0, 101
FAMILY_TRUNCATION = 10_000
BETA_RANGE = (1.2, 3.0)
P_RANGE = (0.05, 0.95)
T_RANGE = (1.0, 3.0)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str  # "cli": one child process per op; "lib": in-process calls
    n: int  # scheme size
    op_timeout_s: float | None  # CLI ops only: a hung child is killed
    setup_repeats: int
    min_rotations: int = 1  # a run ends only at the end of a rotation

    @property
    def computed_working_set_bytes(self) -> int:
        """Computed from sizes, not measured: the two float tuples of a
        scheme and the two lists they are built from, 8-byte pointers each,
        sharing one 24-byte float object per entry."""
        return 2 * self.n * (8 + 8 + 24)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "cli_bulk_1e6",
            "N=1e6 scheme files through five CLI commands: file read, JSON/CSV "
            "parse, validation, rendering and escort normalisation dominate",
            "cli", 1_000_000, op_timeout_s=60.0, setup_repeats=3,
            # each op takes 2-7 s, so every command runs twice per run
            min_rotations=2,
        ),
        Workload(
            "cli_curve_1e4",
            "101-step curves over 1e4 terms and closed forms in fresh "
            "processes: kernel, summation, cold zeta cache and import dominate",
            "cli", 10_000, op_timeout_s=30.0, setup_repeats=5,
        ),
        Workload(
            "lib_small_64",
            "in-process cycle of every library call on fresh N=64 schemes: "
            "fixed per-call cost dominates, zeta cache warm, no start-up or IO",
            "lib", 64, op_timeout_s=None, setup_repeats=7,
        ),
    )
}


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def draw_scheme(rng: np.random.Generator, n: int) -> tuple[list[float], list[float]]:
    """gamma(0.5) weights with ~1% zeros, normalised; lognormal(0, 0.5) utilities."""
    w = rng.gamma(0.5, size=n)
    w[rng.random(n) < 0.01] = 0.0
    probs = w / w.sum()
    utils = rng.lognormal(0.0, 0.5, size=n)
    return probs.tolist(), utils.tolist()


# ---------------------------------------------------------------- CLI ops


@dataclass(frozen=True)
class CliOp:
    """One CLI invocation and what the oracle must check in its output."""

    argv: tuple[str, ...]
    check: tuple  # (kind, *parameters), read by oracle.Oracle.check_cli
    ends_rotation: bool


@dataclass
class CliInputs:
    """The generated scheme of a CLI workload and the files holding it."""

    probs: list[float]
    utils: list[float]
    json_path: Path
    csv_path: Path | None
    out_path: Path  # where curve ops write their CSV


def write_cli_inputs(workload: Workload, seed: int, tmpdir: Path) -> CliInputs:
    probs, utils = draw_scheme(_rng(seed, 0), workload.n)
    # repr gives the shortest text that reads back as the same float
    p_text, u_text = list(map(repr, probs)), list(map(repr, utils))
    json_path = tmpdir / "scheme.json"
    json_path.write_text(
        '{"probabilities": [' + ", ".join(p_text) + '], "utilities": ['
        + ", ".join(u_text) + '], "kind": "complete"}'
    )
    csv_path = None
    if workload.name == "cli_bulk_1e6":
        csv_path = tmpdir / "scheme.csv"
        csv_path.write_text("p,u\n" + "".join(map("{},{}\n".format, p_text, u_text)))
    return CliInputs(probs, utils, json_path, csv_path, tmpdir / "curve.csv")


def cli_ops(workload: Workload, seed: int, inputs: CliInputs) -> Iterator[CliOp]:
    """The endless op sequence of a CLI workload; equal seeds give equal ops.
    Each rotation draws fresh parameters and runs in a seeded order."""
    rng = _rng(seed, 1)
    while True:
        ops = _ROTATIONS[workload.name](rng, inputs)
        order = rng.permutation(len(ops))
        for i, k in enumerate(order):
            yield CliOp(tuple(ops[k][0]), ops[k][1], ends_rotation=i == len(ops) - 1)


def warm_up_op(workload: Workload, inputs: CliInputs) -> tuple[str, ...]:
    """The untimed set-up op: the first command of a rotation, whose cost
    does not depend on drawn parameters."""
    return tuple(_ROTATIONS[workload.name](_rng(0, 4), inputs)[0][0])


def _bulk_rotation(rng: np.random.Generator, x: CliInputs) -> list:
    j, c, d17 = str(x.json_path), str(x.csv_path), ("--digits", "17")
    return [
        (["eval", "--input", j, "--t", "2", *d17], ("weighted", 2.0)),
        (["entropy", "--input", c, "--format", "csv", *d17], ("entropy",)),
        (["moments", "--input", j, "--r-max", "4", *d17], ("moments", 4)),
        (["normalize", "--input", j], ("normalize",)),
        (
            ["escort", "--input", j, "--beta", "2", "--u", "1", "--t", "2",
             "--verify-identity", *d17],
            ("escort", 2.0, 1.0, 2.0),
        ),
    ]


def _curve_rotation(rng: np.random.Generator, x: CliInputs) -> list:
    def draw(lo_hi: tuple[float, float]) -> float:
        return float(rng.uniform(*lo_hi))

    out, d17 = str(x.out_path), ("--digits", "17")
    grid = ["--t-min", repr(CURVE_T_MIN), "--t-max", repr(CURVE_T_MAX),
            "--steps", str(CURVE_STEPS), "--measures", ALL_MEASURES, "--out", out]
    trunc = ["--truncation", str(FAMILY_TRUNCATION)]
    b1 = draw(BETA_RANGE)
    p1 = draw(P_RANGE)
    ops = [
        (["curve", "--input", str(x.json_path), *grid], ("curve_scheme",)),
        (["curve", "--family", "beta-power", "--beta", repr(b1), *trunc, *grid],
         ("curve_beta_power", b1)),
        (["curve", "--family", "geometric", "--p", repr(p1), *trunc, *grid],
         ("curve_geometric", p1)),
    ]
    for _ in range(2):
        b2, b3, p2, t1, t2 = (draw(BETA_RANGE), draw(BETA_RANGE), draw(P_RANGE),
                              draw(T_RANGE), draw(T_RANGE))
        ops += [
            (["closed-form", "beta-power", "--beta", repr(b2), "--t", repr(t1), *d17],
             ("beta_power_igf", b2, 1.0, t1)),
            (["closed-form", "beta-power", "--beta", repr(b3), "--entropy", *d17],
             ("beta_power_entropy", b3, 1.0)),
            (["closed-form", "geometric", "--p", repr(p2), "--t", repr(t2), "--check", *d17],
             ("geometric_check", p2, 1.0, t2)),
        ]
    return ops


_ROTATIONS = {"cli_bulk_1e6": _bulk_rotation, "cli_curve_1e4": _curve_rotation}


# ---------------------------------------------------------------- library ops


@dataclass(frozen=True)
class LibInput:
    """Everything one lib_small_64 cycle needs, drawn before it is timed."""

    probs: list[float]
    utils: list[float]
    ts: tuple[float, ...]  # four points for the three IGFs
    escort_beta: float
    escort_u: float
    beta: float  # beta_power_igf arguments, from the fixed sets below
    beta_t: float


def lib_fixed_sets(seed: int) -> tuple[list[float], list[float]]:
    """The 8 betas and 4 t values beta_power_igf draws from; set-up warms zeta on all."""
    rng = _rng(seed, 2)
    betas = [float(b) for b in rng.uniform(*BETA_RANGE, size=8)]
    ts = [float(t) for t in rng.uniform(*T_RANGE, size=4)]
    return betas, ts


def lib_inputs(workload: Workload, seed: int) -> Iterator[LibInput]:
    betas, beta_ts = lib_fixed_sets(seed)
    rng = _rng(seed, 3)
    while True:
        probs, utils = draw_scheme(rng, workload.n)
        yield LibInput(
            probs, utils,
            ts=tuple(float(t) for t in rng.uniform(*T_RANGE, size=4)),
            escort_beta=float(rng.uniform(0.5, 3.0)),
            escort_u=float(rng.uniform(0.5, 2.0)),
            beta=betas[int(rng.integers(len(betas)))],
            beta_t=beta_ts[int(rng.integers(len(beta_ts)))],
        )


def lib_cycle(igf, x: LibInput) -> dict:
    """One lib_small_64 op.  Every call goes through the ``igf`` module
    attributes, so the traced run sees it."""
    s = igf.make_scheme(x.probs, x.utils)
    out: dict = {}
    for t in x.ts:
        out["weighted", t] = igf.weighted_igf(s, t)
        out["golomb", t] = igf.golomb_igf(s.dist, t)
        out["hooda_bhaker", t] = igf.hooda_bhaker_igf(s, t)
    out["entropy"] = igf.weighted_entropy(s)
    for r in range(5):
        out["moment", r] = igf.weighted_self_information_moment(s, r)
    for r in (1, 2):
        out["derivative", r] = igf.weighted_igf_derivative(s, 1.0, r)
    pair = igf.escort_transform(s.dist, x.escort_beta)
    out["escort"] = (pair.normalized.probs, pair.mass)
    report = igf.verify_scaling_identity(s.dist, x.escort_u, x.escort_beta, x.ts[0])
    out["identity"] = (report.lhs, report.rhs, report.passed)
    out["beta_power"] = igf.beta_power_igf(x.beta, 1.0, x.beta_t)
    return out
