"""Acceptance criteria, one test per criterion, exact tolerances throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion together with its runtime (each suite must stay under a minute).
"""

import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from higherlocal.connection import Connection, KummerCover, rank1_from_form
from higherlocal.derham import (
    FormTuple,
    build_multicomplex,
    check_multicomplex,
    cohomology_dims,
    standard_forms,
)
from higherlocal.dmodule import (
    connection_irregularity,
    find_cyclic_vector,
    newton_polygon,
    to_scalar_operator,
    wronskian,
)
from higherlocal.epsilon import (
    SignConvention,
    consistent_signs,
    epsilon_degree,
    verify_duality,
    verify_induction,
)
from higherlocal.errors import NotClosed, NotIndependent
from higherlocal.linalg import SeriesMatrix, rref_q
from higherlocal.series import (
    OneForm,
    TowerElement,
    TowerField,
    residue,
    set_working_precision,
)
from higherlocal.tate import MatrixDiffOp, operator_index
from helpers import from_scalar

F1 = TowerField(1)
F2 = TowerField(2)
GOLDEN = Path(__file__).parent / "golden"

_BUDGET_SECONDS = 60.0


def _report(number, name, started):
    elapsed = time.monotonic() - started
    print(f"ACCEPTANCE {number} {name}: PASS ({elapsed:.1f}s)")
    assert elapsed < _BUDGET_SECONDS, f"criterion {number} exceeded the time budget"


# -- the shared connection catalog -------------------------------------------

def trivial1():
    return Connection.trivial(F1, 1)


def reg(alpha):
    t = F1.gen(1)
    return rank1_from_form(OneForm((Fraction(alpha) * t ** -1,)))


def expm(m):
    t = F1.gen(1)
    return rank1_from_form(OneForm(((t ** -m).derive(1),)))


def block_extension(top, bottom):
    a = top.matrices[0][0, 0]
    b = bottom.matrices[0][0, 0]
    return Connection(F1, [SeriesMatrix([[a, F1.one()], [F1.zero(), b]])])


def f1_catalog():
    pieces = [trivial1()]
    pieces += [reg(a) for a in (Fraction(1, 2), 1, 2, Fraction(-3, 4))]
    pieces += [expm(m) for m in (1, 2, 3)]
    extensions = [
        block_extension(trivial1(), expm(1)),
        block_extension(expm(2), reg(Fraction(1, 2))),
        block_extension(reg(1), expm(1)),
        block_extension(reg(Fraction(-3, 4)), trivial1()),
    ]
    return pieces, extensions


def f2_catalog():
    t1, t2 = F2.gen(1), F2.gen(2)
    reg_t1 = rank1_from_form(OneForm((Fraction(1, 2) * t1 ** -1, F2.zero())))
    reg_t2 = rank1_from_form(OneForm((F2.zero(), Fraction(1, 3) * t2 ** -1)))
    exp_t2 = rank1_from_form(OneForm((F2.zero(), (t2 ** -1).derive(2))))
    exp_t1 = rank1_from_form(OneForm(((t1 ** -1).derive(1), F2.zero())))
    mixed = rank1_from_form(
        OneForm((Fraction(1, 2) * t1 ** -1, Fraction(1, 3) * t2 ** -1))
    )
    return [
        Connection.trivial(F2, 1),
        reg_t1,
        reg_t2,
        exp_t2,
        exp_t1,
        mixed,
        reg_t1.direct_sum(exp_t2),
    ]


def f2_form_tuples():
    t1, t2 = F2.gen(1), F2.gen(2)
    z = F2.zero()
    one = F2.one()
    return [
        FormTuple((OneForm((one, z)), OneForm((z, one)))),
        FormTuple((OneForm((t1 ** -1, z)), OneForm((z, one)))),
        FormTuple((OneForm((one, z)), OneForm((z, t2 ** -1)))),
    ]


def dt1():
    return standard_forms(F1)


# -- criteria ------------------------------------------------------------------


def test_criterion_1_wronskian_oracle():
    started = time.monotonic()
    rng = random.Random(20260808)
    lo, hi = -4, 7  # degrees in [-4, 6]
    checked = 0
    while checked < 200:
        m = rng.randint(1, 4)
        ys = []
        for _ in range(m):
            coeffs = {
                e: Fraction(rng.randint(-5, 5))
                for e in range(lo, hi)
                if rng.random() < 0.45
            }
            ys.append(TowerElement(1, coeffs, None, True))
        if any(y.is_exactly_zero() for y in ys):
            continue
        w = wronskian(ys)
        rows = [[Fraction(y.coeffs.get(e, 0)) for e in range(lo, hi)] for y in ys]
        independent = rref_q(rows)[0] == m
        assert w.is_certainly_nonzero() == independent, (ys, independent)
        checked += 1
    _report(1, "wronskian oracle suite (200 tuples, exact)", started)


def test_criterion_2_cyclic_vector_suite():
    started = time.monotonic()
    old = set_working_precision(24)
    try:
        rng = random.Random(4242)
        for _ in range(50):
            r = rng.randint(1, 3)
            rows = []
            for _ in range(r):
                row = []
                for _ in range(r):
                    coeffs = {
                        e: Fraction(rng.randint(-2, 2))
                        for e in range(-2, 2)
                        if rng.random() < 0.5
                    }
                    row.append(TowerElement(1, coeffs, None, True))
                rows.append(row)
            C = Connection(F1, [SeriesMatrix(rows)])
            s, cert, certified = find_cyclic_vector(C, seed=11)
            det = certified.determinant
            assert det.is_certainly_nonzero()
            assert det.valuation() is not None
            L = to_scalar_operator(C, s, cert)
            assert L.order == r
            ker_conn = operator_index(
                MatrixDiffOp.from_connection(C), schedule=(6, 8, 10, 12, 16)
            )
            ker_scal = operator_index(
                from_scalar(L.coeffs), schedule=(6, 8, 10, 12, 16)
            )
            if not ker_scal.stabilized:
                # windowed coefficients ran out: raise precision and retry
                inner_old = set_working_precision(64)
                try:
                    L = to_scalar_operator(C, s, cert)
                    ker_scal = operator_index(
                        from_scalar(L.coeffs), schedule=(6, 8, 10, 12, 16)
                    )
                finally:
                    set_working_precision(inner_old)
            assert ker_conn.ker_dim <= r
            assert ker_scal.ker_dim == ker_conn.ker_dim, (
                ker_scal.trace,
                ker_conn.trace,
            )
    finally:
        set_working_precision(old)
    _report(2, "cyclic vector suite (50 random connections)", started)


def test_criterion_3_index_cohomology_catalog():
    started = time.monotonic()
    pieces, extensions = f1_catalog()
    for C in pieces + extensions:
        irr = connection_irregularity(C)
        rep = operator_index(MatrixDiffOp.from_connection(C))
        assert rep.stabilized, rep.trace
        assert rep.index == -irr, (rep.trace, irr)
    rep1 = cohomology_dims(Connection.trivial(F1, 1))
    assert rep1.dims == (1, 1)
    rep2 = cohomology_dims(Connection.trivial(F2, 1))
    assert rep2.dims == (1, 2, 1)
    _report(3, "index = -irregularity on the catalog; trivial H dims", started)


def test_criterion_4_multicomplex_suite():
    started = time.monotonic()
    tuples = f2_form_tuples()
    for C in f2_catalog():
        for nu in tuples:
            B = build_multicomplex(C, nu)
            rep = check_multicomplex(B)
            assert rep.squares_ok, (C, rep.square_failures)
            assert rep.acyclic, (C, [d for d in rep.directions if not d.ok])
    t2 = F2.gen(2)
    with pytest.raises((NotClosed, NotIndependent)):
        FormTuple(
            (
                OneForm((t2, F2.zero())),
                OneForm((F2.zero(), F2.one())),
            )
        )
    _report(4, "multicomplex suite (catalog x 3 frames + rejection)", started)


def test_criterion_5_epsilon_identities():
    started = time.monotonic()
    nu = dt1()
    pieces, extensions = f1_catalog()
    degrees = {id(C): epsilon_degree(C, nu).degree for C in pieces}
    rng = random.Random(55)
    pairs = 0
    while pairs < 30:
        a, b = rng.choice(pieces), rng.choice(pieces)
        expected = degrees[id(a)] + degrees[id(b)]
        assert epsilon_degree(a.direct_sum(b), nu).degree == expected
        if a.rank == 1 and b.rank == 1:
            ext = block_extension(a, b)
            assert epsilon_degree(ext, nu).degree == expected
        pairs += 1
    assert epsilon_degree(trivial1(), nu).degree == 0
    assert epsilon_degree(expm(1), nu).degree == -1
    # gauge invariance: 20 random integral gauge transformations
    t = F1.gen(1)
    gauge_subjects = [
        Connection.trivial(F1, 2),
        expm(1).direct_sum(trivial1()),
        expm(2).direct_sum(reg(Fraction(1, 2))),
        block_extension(trivial1(), expm(1)),
    ]
    done = 0
    while done < 20:
        C = gauge_subjects[done % len(gauge_subjects)]
        base = epsilon_degree(C, nu).degree
        lower = rng.random() < 0.5
        coeffs = {
            e: Fraction(rng.randint(-2, 2)) for e in range(0, 3)
        }
        off = TowerElement(1, coeffs, None, True)
        unit = F1.one() + t * Fraction(rng.randint(-1, 1))
        if lower:
            g = SeriesMatrix([[unit, F1.zero()], [off, F1.one()]])
        else:
            g = SeriesMatrix([[F1.one(), off], [F1.zero(), unit]])
        assert epsilon_degree(C.gauge(g), nu).degree == base
        done += 1
    _report(5, "epsilon additivity, reference values, gauge invariance", started)


def test_criterion_6_induction_diagram():
    started = time.monotonic()
    nu = dt1()
    upstairs = [trivial1(), reg(Fraction(1, 2)), expm(1)]
    count = 0
    for e in (1, 2, 3):
        for C in upstairs:
            ok, up, down = verify_induction(C, KummerCover(e), nu)
            assert ok, (e, up, down)
            count += 1
    assert count == 9
    _report(6, "induction diagram (Kummer e in {1,2,3}, 9 instances)", started)


def test_criterion_7_duality_diagram():
    started = time.monotonic()
    nu = dt1()
    pieces, extensions = f1_catalog()
    instances = [(C, nu) for C in pieces + extensions]
    nu2 = standard_forms(F2)
    f2_instances = f2_catalog()[:4]
    signs = consistent_signs(instances)
    assert signs == (1,), signs
    sigma = SignConvention(1)
    for C in f2_instances:
        ok, lhs, rhs = verify_duality(C, nu2, sigma)
        assert ok, (lhs, rhs)
    print(f"  duality sign sigma = +1 across {len(instances)} F1 and "
          f"{len(f2_instances)} F2 instances")
    _report(7, "duality diagram with a single global sign", started)


def test_criterion_8_residue_adjunction():
    started = time.monotonic()
    rng = random.Random(808)

    def random_vec(field, rank):
        out = []
        for _ in range(rank):
            if field.level == 1:
                coeffs = {
                    e: Fraction(rng.randint(-3, 3))
                    for e in range(-2, 3)
                    if rng.random() < 0.6
                }
            else:
                coeffs = {
                    e: TowerElement(
                        1,
                        {
                            j: Fraction(rng.randint(-2, 2))
                            for j in range(-2, 2)
                            if rng.random() < 0.6
                        },
                        None,
                        True,
                    )
                    for e in range(-2, 2)
                    if rng.random() < 0.7
                }
            out.append(TowerElement(field.level, coeffs, None, True))
        return tuple(out)

    pieces, extensions = f1_catalog()
    subjects = [(C, F1, (1,)) for C in pieces + extensions[:2]]
    subjects += [(C, F2, (1, 2)) for C in f2_catalog()[:2]]
    for C, field, directions in subjects:
        dual = C.dual()
        for _ in range(100):
            s = random_vec(field, C.rank)
            u = random_vec(field, C.rank)
            for i in directions:
                lhs = C.pair(C.nabla(i, s), u) + C.pair(s, dual.nabla(i, u))
                assert residue(lhs) == 0
    _report(8, "residue adjunction (100 pairs per catalog connection)", started)


def test_criterion_9_cli_golden():
    started = time.monotonic()

    def run_cli(path, *extra):
        return subprocess.run(
            [sys.executable, "-m", "higherlocal.cli", str(path), *extra],
            capture_output=True,
            text=True,
        )

    names = [
        "eps_trivial",
        "eps_exponential",
        "irr_exponential",
        "irr_rank2_halfslope",
        "cyclic_rank2",
        "coh_trivial_n1",
        "coh_alpha_half",
        "coh_trivial_n2",
        "verify_n2_trivial",
        "eps_n2_dlog",
    ]
    for name in names:
        proc = run_cli(GOLDEN / f"{name}.hl")
        assert proc.returncode == 0, (name, proc.stderr)
        assert proc.stdout == (GOLDEN / f"{name}.out").read_text(), name
    # parser rejections with positions and exit codes
    import tempfile

    with tempfile.TemporaryDirectory() as td:
        bad = Path(td) / "bad.hl"
        bad.write_text(
            "[field]\nn = 1\n\n[connection]\nrank = 1\n"
            'A1 = [["1/("]]\n\n[task]\ncommand = epsilon\n'
        )
        proc = run_cli(bad)
        assert proc.returncode == 3
        assert "line 6" in proc.stderr and "column 12" in proc.stderr
        bad.write_text(
            "[field]\nn = 1\n\n[connection]\nrank = 2\n"
            'A1 = [["0"]]\n\n[task]\ncommand = epsilon\n'
        )
        proc = run_cli(bad)
        assert proc.returncode == 3
    _report(9, "CLI golden reports (10 files) and rejections", started)
