"""Seeded task generators and the references their outputs are checked against.

Each generator takes the workload seed and returns a list of ``Task``: the
``.hl`` spec text the program sees, plus the reference the benchmark keeps
beside it.  Generation uses only the standard library (exact Laurent
polynomials as ``{exponent: Fraction}`` dicts), never the package under
test, so a reference built here is independent of the code it checks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Tuple

LaurentPoly = Dict[int, Fraction]
Matrix = List[List[LaurentPoly]]

NONZERO_COEFFS = (-2, -1, 1, 2)


@dataclass(frozen=True)
class Task:
    """One program invocation: spec text in, report text out."""

    name: str  # stable label shown in traces
    text: str  # the .hl file contents the program receives
    kind: str  # "golden", "window" or "irregularity"
    expected: Optional[str] = None  # golden: the .out bytes
    irregularity: Optional[int] = None  # cyclic_newton: sum from the construction


# -- input properties recorded in BENCHMARK.json and in every result --------------

WINDOW_RANKS = (3, 4, 5)
WINDOW_POLE = 3  # entries reach down to t^-3
WINDOW_TOP = 1  # and up to t^1
WINDOW_DENSITY = Fraction(1, 2)
# the epsilon command on the two frames, and cohomology, each on its own connection
WINDOW_COMMANDS = (("epsilon", "1"), ("epsilon", "1/t"), ("cohomology", None))
# The support of each presentation (its nonzero cells and the exponents in
# them) decides the window shapes, and so nearly all of a task's cost.
# Drawn from a random support per workload seed, the cost of a 30 s run
# moved by about 30% between seeds.  Whether the two routes agree depends
# on the coefficients too, and the disagreements count as failed; a failed
# count that moved with the seed would make two sets of runs of the same
# code disagree.  So the presentations come from one fixed seed: one support
# per (rank, command) pair, and new coefficients on every support in each
# cycle; the workload seed orders each cycle.  A run has a fixed number of
# cycles, so its tasks, and the failed count among them, are the same for
# every workload seed.  No input repeats within a run (cli_goldens is the
# workload whose inputs repeat).
WINDOW_STRUCTURE_SEED = 0

CYCLIC_PRECISION = 64
# as for window_index, the connections (pieces, slopes and gauge positions;
# new coefficients and signs in each cycle) come from one fixed seed and the
# workload seed orders each cycle: drawn per workload seed, the coefficients
# moved the cost of a run by about 10%.  Three connections per rank put the
# median latency among the rank-5 samples; with two, it fell in the gap
# between the rank-5 and rank-6 costs and moved by 30% between runs.
CYCLIC_STRUCTURE_SEED = 0
CYCLIC_STRUCTURES_PER_RANK = 3
# per rank: the Kummer indices e of the induced pieces; the rest are rank-1 pieces
CYCLIC_LAYOUT = {4: (2,), 5: (3,), 6: (2, 3)}
CYCLIC_GAUGE_FACTORS = 4  # elementary factors in the unimodular gauge


# -- exact Laurent polynomials --------------------------------------------------


def lp_add(a: LaurentPoly, b: LaurentPoly, sign: int = 1) -> LaurentPoly:
    out = dict(a)
    for k, c in b.items():
        v = out.get(k, 0) + sign * c
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def lp_mul(a: LaurentPoly, b: LaurentPoly) -> LaurentPoly:
    out: LaurentPoly = {}
    for ka, ca in a.items():
        for kb, cb in b.items():
            v = out.get(ka + kb, 0) + ca * cb
            if v:
                out[ka + kb] = v
            else:
                out.pop(ka + kb, None)
    return out


def lp_derive(a: LaurentPoly) -> LaurentPoly:
    return {k - 1: k * c for k, c in a.items() if k}


def mat_mul(A: Matrix, B: Matrix) -> Matrix:
    n, m, p = len(A), len(B), len(B[0])
    out = [[{} for _ in range(p)] for _ in range(n)]
    for i in range(n):
        for k in range(m):
            if not A[i][k]:
                continue
            for j in range(p):
                if B[k][j]:
                    out[i][j] = lp_add(out[i][j], lp_mul(A[i][k], B[k][j]))
    return out


def render_poly(a: LaurentPoly) -> str:
    """Spec-file expression for a Laurent polynomial, e.g. ``-2*t^-3 + 1/2*t``."""
    if not a:
        return "0"
    out = ""
    for k in sorted(a):
        c = a[k]
        mag = abs(c)
        mono = "" if k == 0 else ("t" if k == 1 else f"t^{k}")
        term = f"{mag}*{mono}" if mono else f"{mag}"
        if not out:
            out = ("-" if c < 0 else "") + term
        else:
            out += (" - " if c < 0 else " + ") + term
    return out


def spec_text(
    A: Matrix,
    command: str,
    form: Optional[str] = None,
    precision: Optional[int] = None,
) -> str:
    rows = ", ".join(
        "[" + ", ".join(f'"{render_poly(x)}"' for x in row) + "]" for row in A
    )
    lines = ["[field]", "n = 1", "vars = t"]
    if precision is not None:
        lines.append(f"precision = {precision}")
    lines += ["", "[connection]", f"rank = {len(A)}", f"A1 = [{rows}]", ""]
    if form is not None:
        lines += ["[forms]", f'nu1 = ["{form}"]', ""]
    lines += ["[task]", f"command = {command}"]
    return "\n".join(lines) + "\n"


# -- cli_goldens ----------------------------------------------------------------


def in_seed_order(cycles: List[List[Task]], seed: int) -> List[Task]:
    """The cycles one after another, each in an order drawn from ``seed``."""
    rng = random.Random(seed)
    tasks: List[Task] = []
    for cycle in cycles:
        order = list(cycle)
        rng.shuffle(order)
        tasks += order
    return tasks


def golden_tasks(root: Path, seed: int, passes: int) -> List[Task]:
    """The checked-in goldens, one shuffled order per pass."""
    gdir = root / "tests" / "golden"
    base = []
    for hl in sorted(gdir.glob("*.hl")):
        out = hl.with_suffix(".out")
        base.append(
            Task(
                hl.stem,
                hl.read_text(encoding="utf-8"),
                "golden",
                expected=out.read_text(encoding="utf-8"),
            )
        )
    if len(base) != 10:
        raise FileNotFoundError(f"expected 10 golden pairs under {gdir}")
    return in_seed_order([base] * passes, seed)


# -- window_index ---------------------------------------------------------------


def random_support(rng: random.Random, rank: int) -> List[List[List[int]]]:
    """Exponents present in each entry of a rank x rank presentation.

    Exactly half the entries (rounded up) are nonzero, every row has one,
    and one entry per row reaches the full pole t^-3; the other exponents
    in [-3, 1] appear with probability 1/2.
    """
    nnz = -(-rank * rank * WINDOW_DENSITY.numerator // WINDOW_DENSITY.denominator)
    while True:
        cells = set(rng.sample(range(rank * rank), nnz))
        rows = [[j for j in range(rank) if i * rank + j in cells] for i in range(rank)]
        if all(rows):
            break
    support: List[List[List[int]]] = [[[] for _ in range(rank)] for _ in range(rank)]
    span = range(-WINDOW_POLE, WINDOW_TOP + 1)
    for i, cols in enumerate(rows):
        lead = rng.choice(cols)
        for j in cols:
            exps = [k for k in span if rng.random() < 0.5]
            if j == lead and -WINDOW_POLE not in exps:
                exps.insert(0, -WINDOW_POLE)
            support[i][j] = exps or [rng.choice(span)]
    return support


def window_supports() -> List[Tuple[int, str, Optional[str], List[List[List[int]]]]]:
    """One support per (rank, command) pair, drawn from WINDOW_STRUCTURE_SEED."""
    rng = random.Random(WINDOW_STRUCTURE_SEED)
    return [
        (rank, command, form, random_support(rng, rank))
        for rank in WINDOW_RANKS
        for command, form in WINDOW_COMMANDS
    ]


def random_presentation(rng: random.Random, support) -> Matrix:
    """A Laurent-polynomial matrix on ``support`` with coefficients in {-2, -1, 1, 2}."""
    return [
        [{k: Fraction(rng.choice(NONZERO_COEFFS)) for k in exps} for exps in row]
        for row in support
    ]


def window_tasks(seed: int, cycles: int) -> List[Task]:
    """Cycles over the fixed supports with fixed coefficients, ordered by ``seed``."""
    coeffs = random.Random(WINDOW_STRUCTURE_SEED)
    supports = window_supports()
    batches = []
    for cycle in range(cycles):
        batch = []
        for rank, command, form, support in supports:
            A = random_presentation(coeffs, support)
            label = f"r{rank}-{command}" + (f"-{form}" if form else "")
            batch.append(Task(f"{label}#{cycle}", spec_text(A, command, form), "window"))
        batches.append(batch)
    return in_seed_order(batches, seed)


def window_failure(report: Dict[str, str]) -> Optional[str]:
    """Why a window_index report misses its reference, or None.

    The windowed integers (``tate``) must equal the certified ones
    (``dmodule``) printed in the same report.
    """
    if report.get("command") == "epsilon":
        if report.get("window_degree") != report.get("degree"):
            return f"window_degree {report.get('window_degree')} != degree {report.get('degree')}"
        return None
    for i in (0, 1):
        w, c = report.get(f"window_h{i}"), report.get(f"h{i}")
        if w != c:
            return f"window_h{i} {w} != h{i} {c}"
    return None


def window_self_consistent(report: Dict[str, str]) -> bool:
    """The report's own agreement flag matches its integers."""
    flag = report.get("routes_agree", report.get("window_agrees"))
    if flag not in ("yes", "no"):
        return True
    return (flag == "yes") == (window_failure(report) is None)


# -- cyclic_newton --------------------------------------------------------------


def rank1_piece(m: int, a: int, alpha: Fraction) -> LaurentPoly:
    """The matrix entry of d + d(a t^-m) + alpha dt/t: irregularity m."""
    return lp_add({-m - 1: Fraction(-m * a)}, {-1: alpha} if alpha else {})


def kummer_piece(e: int, m: int, a: int, alpha: Fraction) -> Matrix:
    """Push d + d(a u^-m) + alpha du/u down along u^e = t.

    On the basis u^j (j < e), d/dt = u/(e t) d/du sends u^j to
    (j/(e t)) u^j + (1/(e t)) u^(j+1) f(u) with f = -m a u^(-m-1) + alpha/u,
    and u^n = t^(n div e) u^(n mod e).  All slopes are m/e, so the
    irregularity is m.
    """
    f = rank1_piece(m, a, alpha)
    A: Matrix = [[{} for _ in range(e)] for _ in range(e)]
    for j in range(e):
        if j:
            A[j][j] = lp_add(A[j][j], {-1: Fraction(j, e)})
        for k, c in f.items():
            q, r = divmod(k + j + 1, e)
            A[r][j] = lp_add(A[r][j], {q - 1: c / e})
    return A


def block_diag(blocks: List[Matrix]) -> Matrix:
    n = sum(len(b) for b in blocks)
    A: Matrix = [[{} for _ in range(n)] for _ in range(n)]
    o = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                A[o + i][o + j] = dict(x)
        o += len(b)
    return A


def elementary_factors(rng: random.Random, n: int, count: int) -> List[Tuple[int, int, int]]:
    """Positions (p, q) and exponents k of the factors I + c t^k E_pq of a gauge."""
    return [tuple(rng.sample(range(n), 2)) + (rng.choice((-1, 0, 1)),) for _ in range(count)]


def unimodular_gauge(n: int, factors, signs) -> Tuple[Matrix, Matrix]:
    """The n x n product g of the factors I + c t^k E_pq, and its inverse."""
    ident = [[{0: Fraction(1)} if i == j else {} for j in range(n)] for i in range(n)]
    g, g_inv = ident, ident
    for (p, q, k), c in zip(factors, signs):
        E = [[dict(x) for x in row] for row in ident]
        E_inv = [[dict(x) for x in row] for row in ident]
        E[p][q] = {k: Fraction(c)}
        E_inv[p][q] = {k: Fraction(-c)}
        g = mat_mul(g, E)
        g_inv = mat_mul(E_inv, g_inv)
    return g, g_inv


def gauge(A: Matrix, g: Matrix, g_inv: Matrix) -> Matrix:
    """g A g^-1 - g' g^-1: the connection in the basis moved by v -> g v."""
    left = mat_mul(mat_mul(g, A), g_inv)
    dg = [[lp_derive(x) for x in row] for row in g]
    corr = mat_mul(dg, g_inv)
    return [
        [lp_add(x, y, -1) for x, y in zip(r1, r2)] for r1, r2 in zip(left, corr)
    ]


def cyclic_structures():
    """Per task slot: rank, pieces as (e, m), and gauge factor positions.

    Drawn from CYCLIC_STRUCTURE_SEED; each Kummer piece has m prime to e,
    so its slope m/e is fractional.
    """
    rng = random.Random(CYCLIC_STRUCTURE_SEED)
    out = []
    for _ in range(CYCLIC_STRUCTURES_PER_RANK):
        for rank, kummer in sorted(CYCLIC_LAYOUT.items()):
            pieces = [(e, rng.choice([m for m in (1, 2, 3) if m % e])) for e in kummer]
            pieces += [(1, rng.choice((1, 2, 3))) for _ in range(rank - sum(kummer))]
            out.append((rank, pieces, elementary_factors(rng, rank, CYCLIC_GAUGE_FACTORS)))
    return out


def cyclic_connection(rng: random.Random, pieces, factors) -> Matrix:
    """The gauged direct sum of ``pieces``; its irregularity is the sum of the m."""
    blocks: List[Matrix] = []
    for e, m in pieces:
        a = rng.choice(NONZERO_COEFFS)
        if e == 1:
            alpha = rng.choice((0, Fraction(1, 2), Fraction(1, 3), Fraction(-2, 3)))
            blocks.append([[rank1_piece(m, a, alpha)]])
        else:
            blocks.append(kummer_piece(e, m, a, rng.choice((0, Fraction(1, 2)))))
    signs = [rng.choice((-1, 1)) for _ in factors]
    A = block_diag(blocks)
    g, g_inv = unimodular_gauge(len(A), factors, signs)
    return gauge(A, g, g_inv)


def cyclic_tasks(seed: int, cycles: int) -> List[Task]:
    """Cycles over the fixed structures with fixed coefficients, ordered by ``seed``."""
    coeffs = random.Random(CYCLIC_STRUCTURE_SEED)
    structures = cyclic_structures()
    batches = []
    for cycle in range(cycles):
        batch = []
        for slot, (rank, pieces, factors) in enumerate(structures):
            A = cyclic_connection(coeffs, pieces, factors)
            slopes = "+".join(f"{m}/{e}" if e > 1 else str(m) for e, m in pieces)
            batch.append(
                Task(
                    f"r{rank}-slopes{slopes}-s{slot}#{cycle}",
                    spec_text(A, "irregularity", precision=CYCLIC_PRECISION),
                    "irregularity",
                    irregularity=sum(m for _, m in pieces),
                )
            )
        batches.append(batch)
    return in_seed_order(batches, seed)


# -- registry -------------------------------------------------------------------

WORKLOADS = ("cli_goldens", "window_index", "cyclic_newton")
# tasks per cycle: one golden pass, one task per window support, one per
# cyclic structure
CYCLE = {
    "cli_goldens": 10,
    "window_index": len(WINDOW_RANKS) * len(WINDOW_COMMANDS),
    "cyclic_newton": len(CYCLIC_LAYOUT) * CYCLIC_STRUCTURES_PER_RANK,
}
# Seconds per cycle at the baseline on a 2-core Xeon (Python 3.11.7).  A run
# does a fixed number of whole cycles, about --seconds long at the baseline,
# so that its task count (and the count of windowed disagreements among
# them) does not move with the speed of the machine.
NOMINAL_CYCLE_S = {"cli_goldens": 0.21, "window_index": 11.5, "cyclic_newton": 11.0}


def cycles_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / NOMINAL_CYCLE_S[workload]))


# input properties, printed with every result
PROPERTIES = {
    "cli_goldens": {"goldens": 10, "order": "shuffled per pass"},
    "window_index": {
        "ranks": list(WINDOW_RANKS),
        "pole_order": WINDOW_POLE,
        "top_exponent": WINDOW_TOP,
        "density": str(WINDOW_DENSITY),
        "coefficients": list(NONZERO_COEFFS),
        "precision": 32,
        "commands": [c if f is None else f"{c} nu1={f}" for c, f in WINDOW_COMMANDS],
        "presentation_seed": WINDOW_STRUCTURE_SEED,
        "order": "shuffled per cycle",
    },
    "cyclic_newton": {
        "ranks": sorted(CYCLIC_LAYOUT),
        "kummer_e": {str(r): list(e) for r, e in CYCLIC_LAYOUT.items()},
        "rank1_m": [1, 2, 3],
        "precision": CYCLIC_PRECISION,
        "gauge_factors": CYCLIC_GAUGE_FACTORS,
        "connection_seed": CYCLIC_STRUCTURE_SEED,
        "order": "shuffled per cycle",
    },
}


def make_tasks(workload: str, seed: int, root: Path, cycles: int) -> List[Task]:
    if workload == "cli_goldens":
        return golden_tasks(root, seed, cycles)
    if workload == "window_index":
        return window_tasks(seed, cycles)
    if workload == "cyclic_newton":
        return cyclic_tasks(seed, cycles)
    raise ValueError(f"unknown workload {workload!r}")


def parse_report(text: str) -> Dict[str, str]:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            out[key] = value
    return out
