import ast
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import simca.sinkhorn
from helpers import projected_gradient_ot, reference_solve_ot
from simca.datagen import GenConfig, generate_dataset
from simca.model import compute_affinity
from simca.sinkhorn import entropy, extend_with_slack, ot_value, solve_ot


def test_extend_without_surplus_is_identity():
    M = np.arange(6, dtype=float).reshape(3, 2)
    inst = extend_with_slack(M, np.array([2, 1]), 0.5)
    assert inst.affinity.shape[0] == inst.n_users
    assert np.array_equal(inst.affinity, M)
    assert np.array_equal(inst.row_masses, np.ones(3))


def test_extend_appends_virtual_row():
    M = np.ones((2, 2))
    inst = extend_with_slack(M, np.array([2, 1]), 0.5)
    assert inst.affinity.shape[0] == inst.n_users + 1
    assert inst.affinity.shape == (3, 2)
    assert np.array_equal(inst.affinity[2], np.zeros(2))
    assert np.array_equal(inst.row_masses, [1.0, 1.0, 1.0])
    assert inst.n_users == 2


def test_extend_surplus_mass_for_unbalanced_capacities():
    # 1000 users against capacities summing to 1030 leaves 30 units of slack
    caps = np.array([257, 417, 356])
    inst = extend_with_slack(np.zeros((1000, 3)), caps, 0.1)
    assert inst.affinity.shape[0] == inst.n_users + 1
    assert inst.row_masses[-1] == pytest.approx(30.0)


def test_constant_affinity_gives_product_coupling():
    caps = np.array([2, 1, 1])
    inst = extend_with_slack(np.full((4, 3), 2.5), caps, 0.7)
    result = solve_ot(inst, tol=1e-12)
    expected = np.outer(np.ones(4), caps / 4.0)
    assert np.max(np.abs(result.coupling - expected)) < 1e-9


def test_single_cell_instance():
    inst = extend_with_slack(np.array([[4.2]]), np.array([1]), 0.05)
    result = solve_ot(inst, tol=1e-12)
    assert result.coupling == pytest.approx(np.array([[1.0]]))


def test_matches_projected_gradient_oracle():
    rng = np.random.default_rng(3)
    for _ in range(3):
        M = rng.normal(size=(3, 2))
        caps = np.array([2, 1])
        inst = extend_with_slack(M, caps, 0.5)
        result = solve_ot(inst, tol=1e-13)
        oracle, oracle_value = projected_gradient_ot(
            M, np.ones(3), caps.astype(float), 0.5
        )
        assert np.max(np.abs(result.coupling - oracle)) < 1e-6
        assert ot_value(M, result.coupling, 0.5) == pytest.approx(oracle_value, abs=1e-8)


def test_optimal_value_dominates_feasible_points():
    rng = np.random.default_rng(4)
    M = rng.normal(size=(3, 2))
    caps = np.array([2, 1])
    inst = extend_with_slack(M, caps, 0.5)
    best = ot_value(M, solve_ot(inst, tol=1e-13).coupling, 0.5)
    # smoothed feasible couplings never beat the optimum
    for _ in range(20):
        w = rng.dirichlet(np.ones(2), size=3)
        pi = w * np.array([1.0, 1.0, 1.0])[:, None]
        # rescale columns toward feasibility then re-fix rows (stays feasible only
        # approximately; project by running two exact scaling passes)
        for _ in range(500):
            pi *= (caps / pi.sum(0))[None, :]
            pi *= (1.0 / pi.sum(1))[:, None]
        assert ot_value(M, pi, 0.5) <= best + 1e-6


def test_entropy_examples():
    assert entropy(np.ones((2, 3))) == pytest.approx(6.0)
    assert entropy(np.array([[1.0]])) == pytest.approx(1.0)
    assert entropy(np.full((2, 2), 0.5)) == pytest.approx(2.0 + 2.0 * np.log(2.0))


def test_entropy_domain():
    with pytest.raises(ValueError):
        entropy(np.array([[0.5, -0.1]]))
    # entries that underflow to zero contribute the limit value 0
    assert entropy(np.array([[0.0, 1.0]])) == pytest.approx(1.0)
    assert entropy(np.array([[1e-310, 1.0]])) == pytest.approx(1.0)


def test_ot_value_examples():
    assert ot_value(np.array([[3.0]]), np.array([[1.0]]), 0.1) == pytest.approx(3.1)
    with pytest.raises(ValueError):
        ot_value(np.zeros((2, 2)), np.ones((3, 2)), 0.1)
    # constant affinity c against any coupling of total mass n gives c*n + eps*H
    pi = np.outer(np.ones(4), np.array([2, 2]) / 4.0)
    expected = 1.5 * 4 + 0.3 * entropy(pi)
    assert ot_value(np.full((4, 2), 1.5), pi, 0.3) == pytest.approx(expected)


def test_product_form_and_marginals():
    rng = np.random.default_rng(5)
    M = rng.normal(size=(6, 3))
    caps = np.array([3, 2, 3])  # slack of 2
    inst = extend_with_slack(M, caps, 0.2)
    result = solve_ot(inst, tol=1e-10)
    assert result.converged
    recon = np.exp(result.log_a[:, None] + inst.affinity / 0.2 + result.log_b[None, :])
    assert np.max(np.abs(result.coupling - recon)) < 1e-9
    assert np.max(np.abs(result.coupling.sum(1) - inst.row_masses)) <= 1e-8
    assert np.max(np.abs(result.coupling.sum(0) - inst.col_masses)) <= 1e-8
    assert np.all(result.coupling > 0)
    # rows of the user block still sum to one
    assert np.max(np.abs(result.user_coupling.sum(1) - 1.0)) <= 1e-8


def test_value_gradient_is_the_coupling():
    rng = np.random.default_rng(6)
    M = rng.normal(size=(5, 3))
    caps = np.array([2, 2, 1])
    eps = 0.4

    def value(mat):
        inst = extend_with_slack(mat, caps, eps)
        res = solve_ot(inst, tol=1e-12)
        return ot_value(inst.affinity, res.coupling, eps)

    inst = extend_with_slack(M, caps, eps)
    pi = solve_ot(inst, tol=1e-12).user_coupling
    h = 1e-6
    for i, j in [(0, 0), (2, 1), (4, 2)]:
        up, down = M.copy(), M.copy()
        up[i, j] += h
        down[i, j] -= h
        fd = (value(up) - value(down)) / (2 * h)
        assert abs(fd - pi[i, j]) / abs(fd) < 1e-5


def test_scaling_both_affinity_and_epsilon_is_invariant():
    rng = np.random.default_rng(8)
    M = rng.normal(size=(4, 2))
    caps = np.array([2, 2])
    base = solve_ot(extend_with_slack(M, caps, 0.3), tol=1e-12).coupling
    for c in (0.5, 2.0, 10.0):
        scaled = solve_ot(extend_with_slack(c * M, caps, c * 0.3), tol=1e-12).coupling
        assert np.max(np.abs(base - scaled)) < 1e-8


def test_entropy_grows_with_regularization():
    rng = np.random.default_rng(9)
    M = rng.normal(size=(6, 3))
    caps = np.array([2, 2, 2])
    values = []
    for eps in (0.05, 0.1, 0.5, 1.0, 2.0):
        pi = solve_ot(extend_with_slack(M, caps, eps), tol=1e-12).coupling
        values.append(entropy(pi))
    assert all(values[i] <= values[i + 1] + 1e-12 for i in range(len(values) - 1))


def test_fixed_iteration_mode_counts_iterations():
    inst = extend_with_slack(np.zeros((3, 2)), np.array([2, 1]), 0.5)
    result = solve_ot(inst, iterations=5)
    assert result.iterations == 5
    assert result.converged


def test_unconverged_run_is_flagged(monkeypatch):
    monkeypatch.setattr(simca.sinkhorn, "MAX_NEWTON_STEPS", 2)
    rng = np.random.default_rng(10)
    M = 5.0 * rng.normal(size=(8, 3))
    inst = extend_with_slack(M, np.array([3, 3, 2]), 0.05)
    result = solve_ot(inst, tol=1e-14)
    assert not result.converged
    assert result.marginal_error > 1e-14


def test_singular_newton_system_stops_unconverged(monkeypatch):
    def singular(*_):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    rng = np.random.default_rng(10)
    inst = extend_with_slack(5.0 * rng.normal(size=(8, 3)), np.array([3, 3, 2]), 0.05)
    result = solve_ot(inst, tol=1e-10)
    assert not result.converged
    assert result.iterations == 0
    assert result.marginal_error > 1e-10


def test_stopping_mode_is_exclusive():
    inst = extend_with_slack(np.zeros((2, 2)), np.array([1, 1]), 0.5)
    with pytest.raises(ValueError):
        solve_ot(inst)
    with pytest.raises(ValueError):
        solve_ot(inst, iterations=3, tol=1e-8)
    with pytest.raises(ValueError, match="at least 1"):
        solve_ot(inst, iterations=0)


def _assert_same_bits(fast, slow):
    """Every field of two results, their instances' fields included, and
    the marginal error each computes when read, bit for bit; then the
    kernel's own sums at ``fast``'s potentials (``_assert_kernel_sums``)."""
    for name in [*(f.name for f in dataclasses.fields(fast)), "marginal_error"]:
        a, b = getattr(fast, name), getattr(slow, name)
        if isinstance(a, np.ndarray):
            assert np.array_equal(a, b), name
        elif dataclasses.is_dataclass(a):
            for f in dataclasses.fields(a):
                assert np.array_equal(getattr(a, f.name), getattr(b, f.name)), f"{name}.{f.name}"
        else:
            assert a == b, name
    _assert_kernel_sums(fast)


def _assert_kernel_sums(result):
    """The kernel's coupling at ``result``'s potentials, with the column sums
    and the marginal error a Newton solve steps and stops on, equals the
    result's coupling, its column sums on the (n+1, m) layout and its
    ``marginal_error``, bit for bit."""
    pi, col_sums, error = simca.sinkhorn._LogKernel(result.inst).coupling(result.log_a,
                                                                         result.log_b)
    assert np.array_equal(pi, result.coupling)
    assert np.array_equal(col_sums, result.coupling.sum(axis=0))
    assert error == result.marginal_error


def _assert_agrees(fast, slow, inst, tol):
    """Checks of a Newton solve against the reference loop run to the same
    ``tol``: the exact error it reports, the product form, convergence
    whenever the loop converged, and then the couplings' distance. Two
    couplings within ``tol`` of the marginals can differ by more than ``tol``:
    the loop's rows are off by up to ``tol`` each, which shifts the column
    potentials. The largest gap measured on 5,900 random instances of the
    ``oracle_cases`` shapes, with loop caps up to 10,000, was 11.2 tol (n=27,
    m=2); the bound keeps a margin of about 10 over that."""
    pi = fast.coupling
    _assert_kernel_sums(fast)
    assert fast.converged is (fast.marginal_error <= tol)
    product = np.exp(fast.log_a[:, None] + inst.affinity / inst.epsilon + fast.log_b[None, :])
    assert np.array_equal(pi, product)
    if slow.converged:
        assert fast.converged
        assert np.max(np.abs(pi - slow.coupling)) <= 110 * tol


@st.composite
def oracle_cases(draw):
    n = draw(st.integers(1, 40))
    extra = draw(st.integers(1, 6)) if draw(st.booleans()) else 0  # slack row
    m = draw(st.integers(1, min(12, n + extra)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    caps = 1 + rng.multinomial(n + extra - m, np.full(m, 1.0 / m))
    affinity = draw(st.sampled_from([0.0, 0.3, 1.0, 4.0])) * rng.normal(size=(n, m))
    epsilon = float(np.exp(draw(st.floats(np.log(0.002), np.log(2.0)))))
    log_b_init = rng.normal(size=m) if draw(st.booleans()) else None
    return extend_with_slack(affinity, caps, epsilon), log_b_init


@settings(max_examples=300, deadline=None)
@given(oracle_cases(), st.integers(1, 15))
def test_matches_reference_loop_bit_for_bit(case, iterations):
    # m >= 8 reaches numpy's pairwise row sums, whose order the kernel must keep
    inst, log_b_init = case
    _assert_same_bits(solve_ot(inst, iterations=iterations, log_b_init=log_b_init),
                      reference_solve_ot(inst, iterations=iterations, log_b_init=log_b_init))


@pytest.mark.parametrize("m, n, slack", [
    (m, n, slack)
    for m in (1, 2, 3, 7, 8, 9, 15, 16, 17, 30, 100, 128, 129, 257)
    for n in (1, 300, 3000)
    for slack in (False, True)
    if slack or n >= m  # n < m users leave capacity over, so a slack row
])
def test_matches_reference_loop_on_every_summation_order(m, n, slack):
    # numpy adds a row of m items one by one below 8, in 8 strided partial
    # sums up to 128 and by halves above it, and a column pairwise when m=1;
    # m=15 is one 8-row slab and a 7-row tail, 3 the benchmark's items, 30
    # and 100 larger item sets; the hypothesis cases stop at n=40 and m=12
    rng = np.random.default_rng(1000 * m + n + slack)
    caps = 1 + rng.multinomial(max(n, m) - m + 5 * slack, np.full(m, 1.0 / m))
    inst = extend_with_slack(rng.normal(size=(n, m)), caps, 0.3)
    assert inst.affinity.shape[0] == n + slack
    log_b_init = rng.normal(size=m)
    for iterations in (1, 10):
        _assert_same_bits(solve_ot(inst, iterations=iterations, log_b_init=log_b_init),
                          reference_solve_ot(inst, iterations=iterations, log_b_init=log_b_init))
    _assert_agrees(solve_ot(inst, tol=1e-10), reference_solve_ot(inst, tol=1e-10, max_iterations=20),
                   inst, 1e-10)


def test_fortran_ordered_affinity_matches_reference_loop():
    # without a slack row the affinity passes through extend_with_slack; it
    # comes out C-ordered, so the plain loop sums in the order the kernel keeps
    rng = np.random.default_rng(12)
    affinity = rng.normal(size=(40, 9))
    caps = 1 + rng.multinomial(40 - 9, np.full(9, 1.0 / 9))
    inst = extend_with_slack(np.asfortranarray(affinity), caps, 0.3)
    assert inst.affinity.flags.c_contiguous
    fast = solve_ot(inst, iterations=10)
    for reference_inst in (inst, extend_with_slack(affinity, caps, 0.3)):
        _assert_same_bits(fast, reference_solve_ot(reference_inst, iterations=10))


@pytest.mark.parametrize("m", [1, 3, 15])
def test_a_warm_started_chain_never_writes_into_a_start_or_an_earlier_result(m):
    # one m per summation branch of the loop: pairwise over the users (m=1),
    # a leading-axis reduce over the items (m=3) and _sum_over_items (m=15).
    # Each solve starts from the previous result's log_b, as training's
    # epochs do, on an affinity that moves from one solve to the next.
    rng = np.random.default_rng(40 + m)
    n = 30
    caps = 1 + rng.multinomial(n + 4 - m, np.full(m, 1.0 / m))
    fields = ("coupling", "log_a", "log_b")
    start = rng.normal(size=m)
    start_bytes = start.tobytes()
    chain, saved = [], []
    log_b = start
    for k in range(6):
        inst = extend_with_slack(rng.normal(size=(n, m)), caps, 0.3)
        result = solve_ot(inst, iterations=1 + k % 3, log_b_init=log_b)
        chain.append(result)
        saved.append([getattr(result, name).tobytes() for name in fields])
        log_b = result.log_b
    assert start.tobytes() == start_bytes
    for k, (result, before) in enumerate(zip(chain, saved)):
        for name, data in zip(fields, before):
            assert getattr(result, name).tobytes() == data, f"solve {k}: {name}"
    # a tolerance solve run twice, with other solves in between, gives the
    # same bits, also at an unreachable tolerance, where it stalls in its
    # line search
    inst = extend_with_slack(rng.normal(size=(n, m)), caps, 0.3)
    for tol in (1e-10, 0.0):
        first = solve_ot(inst, tol=tol, log_b_init=start)
        before = [getattr(first, name).tobytes() for name in fields]
        solve_ot(inst, iterations=3, log_b_init=first.log_b)
        solve_ot(dataclasses.replace(inst, epsilon=0.5), tol=tol, log_b_init=first.log_b)
        _assert_same_bits(solve_ot(inst, tol=tol, log_b_init=start), first)
        assert [getattr(first, name).tobytes() for name in fields] == before
        assert start.tobytes() == start_bytes


def test_a_stalled_newton_solve_returns_the_log_a_of_its_last_iterate(monkeypatch):
    # with one halving the line search stalls on its first rejected full
    # step, whose row half-step has overwritten the kernel's log_a; the
    # result still pairs the last taken iterate's log_a with its log_b
    monkeypatch.setattr(simca.sinkhorn, "_MAX_HALVINGS", 1)
    rng = np.random.default_rng(0)
    caps = 1 + rng.multinomial(31, np.full(3, 1.0 / 3))
    inst = extend_with_slack(3.0 * rng.normal(size=(30, 3)), caps, 0.01)
    result = solve_ot(inst, tol=1e-10)
    assert not result.converged and result.iterations < simca.sinkhorn.MAX_NEWTON_STEPS
    _assert_kernel_sums(result)


@settings(max_examples=300, deadline=None)
@given(oracle_cases(), st.sampled_from([1e-6, 1e-10]), st.sampled_from([1, 2, 7, 1_000]))
def test_tolerance_mode_agrees_with_reference_loop(case, tol, reference_cap):
    # the Newton solve keeps its default cap; the loop's cap only decides
    # whether it converged, and so whether the couplings are compared
    inst, log_b_init = case
    _assert_agrees(solve_ot(inst, tol=tol, log_b_init=log_b_init),
                   reference_solve_ot(inst, tol=tol, max_iterations=reference_cap,
                                      log_b_init=log_b_init),
                   inst, tol)


def test_reference_loop_edge_stops(monkeypatch):
    # a constant affinity: the loop converges at its first iteration, Newton
    # in a few steps, to the same coupling
    inst = extend_with_slack(np.full((5, 3), 2.5), np.array([2, 2, 3]), 0.7)
    slow = reference_solve_ot(inst, tol=1e-10)
    assert slow.iterations == 1 and slow.converged
    _assert_agrees(solve_ot(inst, tol=1e-10), slow, inst, 1e-10)
    _assert_same_bits(solve_ot(inst, iterations=1), reference_solve_ot(inst, iterations=1))
    # a small epsilon: the loop hits a cap of 50 unconverged (and of 10,000);
    # Newton converges under its default cap, and a cap of 2 stops it after
    # 2 steps, unconverged
    M = 5.0 * np.random.default_rng(11).normal(size=(30, 10))
    inst = extend_with_slack(M, np.full(10, 4), 0.01)
    slow = reference_solve_ot(inst, tol=1e-10, max_iterations=50)
    assert slow.iterations == 50 and not slow.converged
    fast = solve_ot(inst, tol=1e-10)
    assert fast.converged
    with monkeypatch.context() as capped_steps:
        capped_steps.setattr(simca.sinkhorn, "MAX_NEWTON_STEPS", 2)
        capped = solve_ot(inst, tol=1e-10)
    assert capped.iterations == 2 and not capped.converged
    _assert_agrees(capped, slow, inst, 1e-10)
    # an unreachable tolerance: the solve stalls once rounding stops every
    # step from helping, and returns after a few dozen steps and line searches
    trials = []
    evaluate_coupling = simca.sinkhorn._LogKernel.coupling
    monkeypatch.setattr(simca.sinkhorn._LogKernel, "coupling",
                        lambda *args: trials.append(1) or evaluate_coupling(*args))
    exact = solve_ot(inst, tol=0.0)
    assert not exact.converged and 0 < exact.marginal_error < 1e-12
    assert exact.iterations < 60 and len(trials) < 400


@settings(max_examples=200, deadline=None)
@given(oracle_cases(), st.integers(-280, 280), st.sampled_from([1.0, 0.5, 2.0**-60, 0.0]))
def test_range_guard_on_max_affinity_over_epsilon(case, exponent, shrink):
    # at or past max |M| / epsilon = 2**53 no instance is built: extending the
    # affinity and replacing an instance's fields raise alike, naming epsilon;
    # just below it both modes return finite plans and potentials, warnings
    # failing the test
    inst, log_b_init = case
    affinity = inst.affinity * 10.0**exponent
    peak = np.abs(affinity).max()
    assume(peak > 0)
    at_bound = peak / 2**53
    epsilon = float(at_bound * shrink if shrink else np.nextafter(at_bound, np.inf))
    assume(epsilon > 0)
    fine = dataclasses.replace(inst, affinity=affinity, epsilon=float(np.nextafter(at_bound, np.inf)))
    if shrink:
        message = f"^affinity / epsilon overflows at epsilon={re.escape(repr(epsilon))}$"
        caps = inst.col_masses.astype(np.int64)
        with pytest.raises(ValueError, match=message):
            extend_with_slack(affinity[:inst.n_users], caps, epsilon)
        with pytest.raises(ValueError, match=message):
            dataclasses.replace(fine, epsilon=epsilon)
        return
    for mode in ({"iterations": 3}, {"tol": 1e-10}):
        result = solve_ot(fine, log_b_init=log_b_init, **mode)
        assert np.isfinite(result.coupling).all() and np.isfinite(result.log_b).all()


@pytest.mark.parametrize("epsilon", [100.0, 1e4])
def test_newton_steps_do_not_grow_with_large_epsilon(epsilon):
    # the damping's epsilon factor stops at 1: damped by epsilon * ||g||_inf, a
    # step moves log_b by about 1/epsilon, and this instance took 76 steps at
    # epsilon = 100 and 6,757 at 1e4
    ds = generate_dataset(GenConfig(n=300, m=3, seed=7))
    affinity = compute_affinity(ds.users, ds.items_truth, ds.distances, ds.alpha)
    inst = extend_with_slack(affinity, ds.capacities, epsilon)
    fast = solve_ot(inst, tol=1e-10)
    assert fast.converged and fast.iterations <= 20
    _assert_agrees(fast, reference_solve_ot(inst, tol=1e-10), inst, 1e-10)


@st.composite
def favoured_cases(draw):
    """Instances whose row argmax puts item 0 over capacity while the other
    items' room, and any slack, take its excess: the sorted phase mostly
    settles, with a positive price on item 0."""
    n = draw(st.integers(2, 40))
    m = draw(st.integers(2, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    affinity = draw(st.sampled_from([0.3, 1.0, 4.0])) * rng.normal(size=(n, m))
    affinity[:, 0] += draw(st.floats(0.5, 3.0))
    caps = np.bincount(affinity.argmax(axis=1), minlength=m)
    assume(caps[0] > 1)
    excess = draw(st.integers(1, caps[0] - 1))
    caps[0] -= excess
    caps[1:] += rng.multinomial(excess + draw(st.integers(0, 3)), np.full(m - 1, 1.0 / (m - 1)))
    caps[caps == 0] = 1  # a capacity of zero has no transport plan
    return extend_with_slack(affinity, caps, 1.0), None


@settings(max_examples=200, deadline=None)
@given(favoured_cases(), st.sampled_from([1e-4, 0.002, 0.004]))
def test_tolerance_solve_given_no_start_starts_from_zero(case, epsilon):
    # at every epsilon, on instances whose sorted phase mostly settles with a
    # positive price, a solve given no start is the zero start, bit for bit:
    # the caller picks any other start
    inst = dataclasses.replace(case[0], epsilon=epsilon)
    zero = np.zeros(inst.affinity.shape[1])
    _assert_same_bits(solve_ot(inst, tol=1e-10), solve_ot(inst, tol=1e-10, log_b_init=zero))


def test_the_transport_solver_imports_no_simca_module():
    # the solver knows nothing of the LAP or the data: the start of a solve
    # and the capacities come from its caller
    tree = ast.parse(Path(simca.sinkhorn.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            assert node.level == 0 and not node.module.startswith("simca"), ast.unparse(node)
        elif isinstance(node, ast.Import):
            assert not any(alias.name.split(".")[0] == "simca" for alias in node.names)
