"""The four benchmark workloads: inputs made from a seed, operations, checks.

Every workload returns a fixed list of operations.  An operation is one
closed-loop call into grascat's public API; its answer is checked against an
independent computation or a property the paper proves, never against a
stored copy of an earlier run.  The library is always looked up through its
module attributes at call time, so the tracer's wrappers are seen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Any, Callable

import numpy as np

import grascat  # noqa: F401  (loads every submodule the tracer patches)
from grascat import braid as gb
from grascat import cluster, einv, fixtures, gvec, hl, tableaux

import checks

FP, RATIONAL = "fp", "rational"


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    # Independent checks of one answer; returns a list of failures.
    check: Callable[[Any], list[str]]
    # Comparable form of the answer; it must repeat exactly in every round.
    summary: Callable[[Any], Any]


@dataclass
class Plan:
    ops: list[Op]
    # Checks that concern the whole workload rather than one answer.
    run_checks: list[Callable[[], list[str]]] = field(default_factory=list)
    # Makes the operations of round r >= 1; None repeats ``ops`` every round.
    later_round: Callable[[int], list[Op]] | None = None

    def round_ops(self, r: int) -> list[Op]:
        return self.ops if r == 0 or self.later_round is None else self.later_round(r)


def _shuffled(ops: list[Op], seed: int) -> list[Op]:
    order = np.random.default_rng([seed, 7]).permutation(len(ops))
    return [ops[i] for i in order]


def _tame():
    """(key, k, n, algebra, initial seed) for the two tame Grassmannians."""
    return [
        (key, k, n, fixtures.tame_algebra(key), cluster.grassmannian_initial_seed(k, n))
        for key, (k, n) in fixtures.TAME.items()
    ]


# --- braid ------------------------------------------------------------------

# Unequal counts keep the median inside the Gr(3,9) cost class and the tail
# inside the Gr(4,8) class; a half-and-half mix puts p50 between the two.
BRAID_MIX = ((3, 9, 36), (4, 8, 24))


def generic_tuple(seed: int, k: int, n: int, idx: int) -> list[list[int]]:
    """Integer tuple with entries in [-9, 9], redrawn until every cyclic
    window minor is nonzero (checked by the independent determinant)."""
    rng = np.random.default_rng([seed, k, n, idx])
    while True:
        vecs = rng.integers(-9, 10, size=(n, k)).tolist()
        if all(checks.window_minors(vecs, k)):
            return vecs


def _braid_check(t, report) -> list[str]:
    k, n, d = t.k, t.n, t.d
    errors = []
    if not report.genericity_preserved or not all(report.periodicity.values()):
        errors.append("periodicity or genericity failed")
    if len(report.periodicity) != d - 1:
        errors.append("periodicity not checked for every generator")
    want_commutation = {(1, 3): True} if (k, n) == (4, 8) else {}
    if report.commutation != want_commutation:
        errors.append(f"commutation {report.commutation}")
    if len(report.braid_plucker) != d - 2 or not all(report.braid_plucker.values()):
        errors.append(f"braid relation up to Plücker scaling: {report.braid_plucker}")
    images = [t] + [gb.sigma(i, t) for i in range(1, d)]
    for x in images:
        want = checks.window_minors(x.vectors, k)
        if not all(want):
            errors.append("a sigma image lost consecutive genericity")
        if [x.window_minor(i) for i in range(1, n + 1)] != want:
            errors.append("window minor differs from the independent determinant")
    return errors


def braid(seed: int) -> Plan:
    ops = []
    for k, n, count in BRAID_MIX:
        for idx in range(count):
            vecs = generic_tuple(seed, k, n, idx)
            t = gb.VectorTuple(k, n, tuple(tuple(Fraction(x) for x in v) for v in vecs))
            ops.append(Op(
                f"braid Gr({k},{n}) #{idx}",
                lambda t=t: gb.braid_property_check(t),
                lambda r, t=t: _braid_check(t, r),
                lambda r: r.to_json(),
            ))
    return Plan(_shuffled(ops, seed))


# --- einv -------------------------------------------------------------------

EINV_SAMPLES = 3
# Multiples t of each non-real g-vector.  The braid images are already
# six-column strata; their triples take seconds over the rationals.
EINV_MULTIPLES = {"tableaux": (1, 2, 3), "braid_images": (1, 2)}


def _nonreal_check(report) -> list[str]:
    if report.value < 1 or report.certified or report.samples != EINV_SAMPLES:
        return [f"non-real stratum gave {report.describe()}"]
    return []


def _witness_check(alg39, seed39) -> list[str]:
    """The printed witnesses of E(g1, g1) = 0 for T1 on Gr(3,9)."""
    t1 = tableaux.Tableau.make(3, 9, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    neg, pos = einv.complex_from_gvector(gvec.g_vector(t1, seed39), alg39)

    def witness(mat):
        blocks = {
            (t, s): (Fraction(mat[t][s]),) for t in range(3) for s in range(3) if mat[t][s]
        }
        return einv.TwoTermComplex(alg39, neg, pos, blocks)

    b1 = witness([[0, 1, 0], [0, 1, 1], [1, 0, 0]])
    b2 = witness([[0, 1, 0], [1, 1, 0], [0, 0, 1]])
    values = [einv.e_pair(x, y, f) for f in (RATIONAL, FP) for x, y in ((b1, b2), (b2, b1))]
    return [] if values == [0, 0, 0, 0] else [f"printed witnesses gave E = {values}"]


def einv_workload(seed: int) -> Plan:
    ops, fixture_errors = [], []
    tame = _tame()
    for key, k, n, alg, init in tame:
        data = fixtures.nonreal(key)
        for kind, multiples in EINV_MULTIPLES.items():
            for entry in data[kind]:
                g = gvec.g_vector(tableaux.Tableau.make(k, n, entry["rows"]), init)
                if list(g.coords) != entry["g"]:
                    fixture_errors.append(f"{key} {entry['name']}: g-vector {g.coords}")
                for mult in multiples:
                    for fld in (FP, RATIONAL):
                        ops.append(Op(
                            f"einv {key} {entry['name']} x{mult} {fld}",
                            lambda g=g.scale(mult), alg=alg, fld=fld: einv.generic_e(
                                g, alg, samples=EINV_SAMPLES, field=fld, master_seed=seed
                            ),
                            _nonreal_check,
                            lambda r: (r.value, r.samples, r.certified),
                        ))
    _, _, _, alg39, seed39 = tame[0]
    return Plan(
        _shuffled(ops, seed),
        [lambda: fixture_errors, lambda: _witness_check(alg39, seed39)],
    )


# --- gamma_compat -----------------------------------------------------------

GAMMA_SAMPLES = 12
# (k, ell) -> (weakly separated, not weakly separated) label pairs per round.
# Fixed shares of each kind keep the share of early exits (a compatible pair
# stops at its first sample) the same for every seed.
GAMMA_MIX = {(4, 3): (6, 4), (3, 4): (6, 4), (5, 2): (6, 0), (3, 3): (8, 3), (4, 2): (3, 0)}
# Pairs whose verdict is also computed over the tame Grassmannian algebras.
GRASSMANNIAN_ROUTE = {(3, 5), (4, 3)}
# (3, 5) builds Gamma(3,-12), about a second per call: too long to normalise
# well against the host's sub-second speed changes, so its two seeded pairs
# are checked once per run, untimed.
GAMMA_UNTIMED = {(3, 5): (1, 1)}


def kernel_params(k: int, ell: int) -> list[tuple[int, int, int]]:
    """Every (i, m, v) with a generic-kernel label in the truncation."""
    out = []
    for i in range(1, k):
        top = -2 if i % 2 == 1 else -1
        for m in range(top, -2 * ell - 3, -2):
            vmax = (m + 2 * ell + (-1) ** (i + 1)) // 2
            out.extend((i, m, v) for v in range(1, vmax + 1))
    return out


def _gamma_pairs(seed: int, k: int, ell: int, counts: tuple[int, int]):
    """Seeded choice of label pairs, with their weak-separation verdicts."""
    n = k + ell + 1
    split: dict[bool, list] = {True: [], False: []}
    for a, b in combinations(kernel_params(k, ell), 2):
        sa, sb = hl.kernel_subset(*a, k, ell), hl.kernel_subset(*b, k, ell)
        split[checks.weakly_separated(sa.elems, sb.elems, n)].append((a, b))
    rng = np.random.default_rng([seed, k, ell])
    chosen = []
    for separated, count in zip((True, False), counts):
        pairs = split[separated]
        chosen += [(pairs[j], separated) for j in sorted(rng.choice(len(pairs), count, replace=False))]
    return chosen


def _compatible_gamma(k: int, ell: int, a, b, seed: int):
    """kr_compatible_gamma on two labels given as (i, m, v)."""
    (i1, m1, v1), (i2, m2, v2) = a, b
    return hl.kr_compatible_gamma(v1, m1, i1, v2, m2, i2, k, ell,
                                  samples=GAMMA_SAMPLES, master_seed=seed)


def _gamma_check(k, ell, a, b, separated, result) -> list[str]:
    errors = []
    if bool(result) != separated:
        errors.append(f"verdict {bool(result)} but weak separation says {separated}")
    if (k, ell) in GRASSMANNIAN_ROUTE:
        (i1, m1, v1), (i2, m2, v2) = a, b
        other = hl.kr_compatible(v1, m1, i1, v2, m2, i2, k, ell,
                                 samples=GAMMA_SAMPLES, master_seed=0)
        if bool(other) != bool(result):
            errors.append("Gamma route and Grassmannian route disagree")
    return errors


def _mutation_sequence_check() -> list[str]:
    """Criterion 07: the column sweep turns Q_ell into the truncated quiver."""
    errors = []
    for k, ell in [(4, 3), (5, 3), (3, 5)]:
        mutated = hl.apply_mutation_sequence(hl.q_ell_quiver(k, ell), hl.hl_mutation_sequence(k, ell))
        target = hl.gamma_quiver(k, -2 * ell - 2)
        if not hl.quivers_isomorphic(mutated.mutable_part(), target.mutable_part()):
            errors.append(f"mutation sequence fails for (k, ell) = ({k}, {ell})")
    return errors


def _untimed_gamma_check(seed: int) -> list[str]:
    errors = []
    for (k, ell), counts in GAMMA_UNTIMED.items():
        for (a, b), separated in _gamma_pairs(seed, k, ell, counts):
            verdict = _compatible_gamma(k, ell, a, b, seed)
            errors += _gamma_check(k, ell, a, b, separated, verdict)
    return errors


def gamma_compat(seed: int) -> Plan:
    ops = []
    for (k, ell), counts in GAMMA_MIX.items():
        for (a, b), separated in _gamma_pairs(seed, k, ell, counts):
            ops.append(Op(
                f"gamma ({k},{ell}) {a} {b}",
                lambda a=a, b=b, k=k, ell=ell: _compatible_gamma(k, ell, a, b, seed),
                lambda r, k=k, ell=ell, a=a, b=b, sep=separated: _gamma_check(k, ell, a, b, sep, r),
                lambda r: (bool(r), r.report.value, r.report.samples),
            ))
    return Plan(_shuffled(ops, seed),
                [_mutation_sequence_check, lambda: _untimed_gamma_check(seed)])


# --- reachability -----------------------------------------------------------

# Start seeds per tame Grassmannian and round.  Unequal counts keep the
# median inside the Gr(3,9) cost class; equal ones put it on the boundary
# with Gr(4,8).  Every round draws new start seeds, so each exploration pays
# for the g-vector solver of its start seed, as one from a new seed does.
REACH_STARTS = {"gr39": 45, "gr48": 15}
REACH_WALK = 6  # mutations from the initial seed to each start seed
REACH_SAMPLES = 8
# Finite-type closures run alongside: Gr(2,4..8) and Gr(3,6) as timed
# operations; Gr(3,7), 833 clusters in about a second, once per run untimed.
CLOSURES = [(2, n) for n in range(4, 9)] + [(3, 6)]
UNTIMED_CLOSURES = [(3, 7)]


def _walk(seed: int, rnd: int, init, idx: int):
    """Start seed reached from the initial seed by a seeded mutation walk."""
    rng = np.random.default_rng([seed, rnd, init.m, idx])
    s = init
    for _ in range(REACH_WALK):
        s = cluster.mutate_seed(s, int(rng.integers(0, s.n_mut)))
    return s


def _reach(start, known, init, alg, seed):
    """Depth-1 exploration, then a rigidity certificate (E = 0 over F_p) for
    every variable the start seed did not already carry."""
    result = cluster.explore(start, 1, 100)
    certificates = {
        var: einv.generic_e(gvec.g_vector(var, init), alg, samples=REACH_SAMPLES,
                            field=FP, master_seed=seed)
        for var in result.variables
        if var not in known
    }
    return result, certificates


def _rigid_check(report, k, n, var, g) -> list[str]:
    errors = []
    if report.value != 0 or not report.certified or report.witness is None:
        errors.append(f"{var} not certified rigid: {report.describe()}")
    elif einv.e_pair(report.witness, report.witness, FP) != 0:
        errors.append(f"{var}: witness does not give E = 0")
    if not checks.content_sum_holds(k, n, var.rows, g.coords, [lab.rows for lab in g.seed.labels]):
        errors.append(f"{var}: g-vector over the initial seed fails the content sum")
    return errors


def _reach_check(start, init, answer) -> list[str]:
    result, certificates = answer
    k, n = init.labels[0].k, init.labels[0].n
    labels = [lab.rows for lab in start.labels]
    errors = [
        f"{var}: g-vector over the start seed fails the content sum"
        for var, g in result.variables.items()
        if not checks.content_sum_holds(k, n, var.rows, g, labels)
    ]
    if not certificates:
        errors.append("exploration reached no new variable")
    for var, report in certificates.items():
        errors += _rigid_check(report, k, n, var, gvec.g_vector(var, init))
    return errors


def _closure_check(k, n, init, result) -> list[str]:
    want = checks.closure_counts(k, n)
    got = (result.seeds_seen, result.variable_count())
    errors = [] if result.complete and got == want else [f"Gr({k},{n}) closure {got}, want {want}"]
    labels = [lab.rows for lab in init.labels]
    errors += [
        f"Gr({k},{n}) {var}: g-vector fails the content sum"
        for var, g in result.variables.items()
        if not checks.content_sum_holds(k, n, var.rows, g, labels)
    ]
    return errors


def _untimed_closure_check() -> list[str]:
    errors = []
    for k, n in UNTIMED_CLOSURES:
        init = cluster.grassmannian_initial_seed(k, n)
        errors += _closure_check(k, n, init, cluster.explore(init, 100, 10**6))
    return errors


def _listed_rigid_check(tame, seed) -> list[str]:
    """All 85 listed rank-3/4 rigid variables certify E = 0 with a witness."""
    errors, total = [], 0
    for key, k, n, alg, init in tame:
        for listed in [key + "_rank4"] + (["gr48_rank3"] if key == "gr48" else []):
            for pair in fixtures.rigid_pairs(listed):
                var = tableaux.Tableau.from_json(pair["tableau"])
                g = gvec.g_vector(var, init)
                report = einv.generic_e(g, alg, samples=20, field=FP, master_seed=seed)
                errors += _rigid_check(report, k, n, var, g)
                total += 1
    return errors if total == 85 else errors + [f"{total} listed rigid variables, want 85"]


def _summary_reach(answer):
    result, certificates = answer
    return (
        result.seeds_seen, result.complete, sorted(result.variables.items(), key=str),
        sorted(((str(v), r.value, r.samples) for v, r in certificates.items())),
    )


def _reach_round(seed: int, rnd: int, tame) -> list[Op]:
    ops = []
    for key, k, n, alg, init in tame:
        for idx in range(REACH_STARTS[key]):
            start = _walk(seed, rnd, init, idx)
            known = {tableaux.reduce(t) for t in start.mutable_labels()}
            ops.append(Op(
                f"reach {key} round {rnd} #{idx}",
                lambda s=start, kn=known, i=init, a=alg: _reach(s, kn, i, a, seed),
                lambda r, s=start, i=init: _reach_check(s, i, r),
                _summary_reach,
            ))
    for k, n in CLOSURES:
        init = cluster.grassmannian_initial_seed(k, n)
        ops.append(Op(
            f"closure Gr({k},{n})",
            lambda i=init: cluster.explore(i, 100, 10**6),
            lambda r, k=k, n=n, i=init: _closure_check(k, n, i, r),
            lambda r: (r.seeds_seen, r.complete, sorted(r.variables.items(), key=str)),
        ))
    return _shuffled(ops, seed)


def reachability(seed: int) -> Plan:
    tame = _tame()
    return Plan(_reach_round(seed, 0, tame),
                [lambda: _listed_rigid_check(tame, seed), _untimed_closure_check],
                lambda rnd: _reach_round(seed, rnd, tame))


WORKLOADS: dict[str, Callable[[int], Plan]] = {
    "braid": braid,
    "einv": einv_workload,
    "gamma_compat": gamma_compat,
    "reachability": reachability,
}
