import math
from pathlib import Path

import numpy as np
import pytest

import criteria_oracle as oracle
from twinwell import criteria
from twinwell.config import (
    InitialState,
    LossRates,
    SimConfig,
    SweepParams,
    load_config,
    preset_couplings,
)
from twinwell.criteria import (
    N_SAMPLE,
    QUARTIC_LEAD_TOL,
    GainPair,
    JointSpinMoments,
    _quartic_roots,
    _stationary_phases,
    e_epr_product,
    e_product,
    evaluate_criteria,
    inference_variances,
    joint_moments,
    optimal_gains,
)
from twinwell.errors import DegenerateReferenceError
from twinwell.kerr import fock_moment_table, moment_table
from twinwell.operators import (
    SITE_A,
    SITE_B,
    SITE_C,
    SITE_D,
    CompiledPolys,
    NormalPoly,
    raising_bilinear,
    spin_operators,
)
from twinwell.spins import optimal_angle, phase_factor_from, spin_moments, squeezing
from twinwell.sweeps import criteria_row
from twinwell.wigner import moment_source, run_ensemble

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def exact_table(tag, N, taus, **initial):
    coup = preset_couplings(tag, N)
    return moment_table(coup, InitialState(N_A=N, **initial), np.atleast_1d(taus))


def exact_criteria(tag, N, taus, **kwargs):
    return evaluate_criteria(exact_table(tag, N, taus), **kwargs)


class TestShotNoiseBaselines:
    @pytest.mark.parametrize("N", [200.0, 2000.0])
    def test_zero_time(self, N):
        r = exact_criteria("B9p116G", N, 0.0)
        assert r.S_minus[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert r.S_plus[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert r.E_product[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert r.E_EPR_product[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert abs(r.duan_sum[0, 0]) < 1e-10
        assert r.g[0] == pytest.approx(0.0, abs=1e-12)
        assert r.g_prime[0] == pytest.approx(0.0, abs=1e-12)

    def test_no_splitter_uncorrelated_inputs(self):
        r = exact_criteria("B9p116G", 200.0, 0.0, beam_splitter=False)
        assert r.E_product[0, 0] == pytest.approx(1.0, abs=1e-10)
        assert abs(r.duan_sum[0, 0]) < 1e-10


def assert_matches_oracle(r, table, i, fields, rel, abs_=0.0):
    """Row i of a compiled result against the per-tau oracle at the same angle."""
    o = oracle.criteria(table[i], theta=float(r.theta_opt[i]))
    for f in fields:
        got = getattr(r, f)[i] if f in ("g", "g_prime") else getattr(r, f)[i, 0]
        want = o[f] if f in ("g", "g_prime") else o[f][0]
        assert got == pytest.approx(want, rel=rel, abs=abs_), f


class TestRouteEquivalence:
    """The sum/difference regrouping against the head-on expansion."""

    def test_decomposition_matches_direct(self):
        rng = np.random.default_rng(9)
        taus = rng.uniform(0.2, 8.0, 6)
        table = exact_table("B9p116G", 200.0, taus)
        r = evaluate_criteria(table)
        for i in range(len(taus)):
            fields = ("S_minus", "S_plus", "E_product", "E_EPR_product", "duan_sum", "g", "g_prime")
            assert_matches_oracle(r, table, i, fields, rel=1e-9, abs_=1e-9)

    def test_routes_agree_for_asymmetric_wells(self):
        # unequal wells break the A/B exchange symmetry, so the sum/
        # difference regrouping only stays exact through its cross term
        table = exact_table("B9p116G", 200.0, [1.0, 4.0], N_B=120.0)
        r = evaluate_criteria(table)
        for i in range(2):
            fields = ("S_minus", "S_plus", "E_product", "E_EPR_product", "g", "g_prime")
            assert_matches_oracle(r, table, i, fields, rel=1e-9)
        assert r.joint.mean_JY_C[0, 0] != pytest.approx(r.joint.mean_JY_D[0, 0], rel=1e-3)

    def test_global_phase_covariance(self):
        r0 = exact_criteria("B9p116G", 200.0, 2.0)
        r1 = evaluate_criteria(exact_table("B9p116G", 200.0, 2.0, phase=1.3), theta=r0.theta_opt)
        for f in ("S_minus", "S_plus", "E_product", "E_EPR_product", "duan_sum"):
            assert getattr(r1, f) == pytest.approx(getattr(r0, f), rel=1e-9, abs=1e-9), f

    def test_fields_match_across_routes(self):
        table = exact_table("B9p116G", 2000.0, 6.0)
        ja = joint_moments(table, theta=0.3)
        o = oracle.criteria(table[0], theta=0.3)
        for f in oracle.JOINT_FIELDS:
            assert getattr(ja, f)[0, 0] == pytest.approx(o[f][0], rel=1e-9, abs=1e-9), f


CRITERION_COLUMNS = ("S_minus", "S_plus", "E_product", "E_EPR_product", "duan_sum")


def cd_covariances(table, beam_splitter):
    """Merged-ensemble covariances of (J_C^Z, J_C^X, J_D^Z, J_D^X), (n_tau, 4, 4),
    from the head-on spin operators, in the layout the oracle's angle search takes."""
    site_c, site_d = (SITE_C, SITE_D) if beam_splitter else (SITE_A, SITE_B)
    table = table[:, :1]
    pf = phase_factor_from(CompiledPolys([raising_bilinear(site_c)]).expectations(table)[:, 0, 0])
    (cx, _, cz), (dx, _, dz) = spin_operators(site_c), spin_operators(site_d)
    ops = [cz, cx, dz, dx]
    sym = [0.5 * (a * b + b * a) for a in ops for b in ops]
    e = CompiledPolys(ops + sym).expectations(table, pf).real[:, 0]
    return e[:, 4:].reshape(-1, 4, 4) - e[:, :4, None] * e[:, None, :4]


def assert_compiled_matches_oracle(r, table, beam_splitter, objective, theta):
    """Compiled criteria for every tau and ensemble row of `table` against
    the per-tau oracle.

    The angle is compared to 1e-7: near the optimum the objective is flat,
    so 1e-15 relative noise in the expectations moves it by ~1e-8.  The
    other columns are compared at the compiled angle, the criteria to
    1e-10 relative (absolute floor 1e-12 of the column's largest value)
    and the gains to 1e-9 relative.  The EPR objective is π/2-periodic by
    construction (θ and θ + π/2 swap its two factors), and so is the plain
    product without the splitter for identical wells: there the angle is
    compared modulo π/2.
    """
    period = math.pi if (beam_splitter and objective == "product") else 0.5 * math.pi
    refs = []
    for i in range(table.shape[0]):
        kw = dict(beam_splitter=beam_splitter, objective=objective)
        free = oracle.criteria(table[i], theta=theta, **kw)
        d = (free["theta"] - r.theta_opt[i]) % period
        assert min(d, period - d) <= 1e-7, (i, free["theta"], r.theta_opt[i])
        refs.append(oracle.criteria(table[i], theta=float(r.theta_opt[i]), **kw))
    for f in CRITERION_COLUMNS:
        got = getattr(r, f)
        want = np.array([o[f] for o in refs])
        floor = 1e-12 * np.abs(want).max()
        assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want) + floor), f
    for f in ("g", "g_prime"):
        want = np.array([o[f] for o in refs])
        # without the splitter the gains vanish up to rounding
        assert np.all(np.abs(getattr(r, f) - want) <= 1e-9 * np.abs(want) + 1e-12), f


class TestCompiledAgainstOracle:
    @pytest.mark.parametrize("theta", [None, 0.25])
    @pytest.mark.parametrize("objective", ["product", "epr"])
    @pytest.mark.parametrize("beam_splitter", [True, False])
    @pytest.mark.parametrize("N", [200.0, 2000.0])
    def test_exact_sweep(self, N, beam_splitter, objective, theta):
        table = exact_table("B9p116G", N, np.linspace(0.0, 16.0, 9))
        r = evaluate_criteria(table, beam_splitter, theta=theta, objective=objective)
        assert_compiled_matches_oracle(r, table, beam_splitter, objective, theta)

    @pytest.mark.parametrize("beam_splitter", [True, False])
    def test_chunk_rows(self, beam_splitter):
        coup = preset_couplings("B9p116G", 200.0, kappa=0.5)
        params = SimConfig(dtau=1e-3, n_traj=400, seed=5, chunk_size=100)
        run = run_ensemble(coup, LossRates(gamma12=1e-3), InitialState(N_A=200.0), (0.0, 0.5, 1.0), params)
        table = moment_source(run, params.chunk_size)
        assert table.shape == (3, 5, table.shape[2])
        r = evaluate_criteria(table, beam_splitter)
        assert_compiled_matches_oracle(r, table, beam_splitter, "product", None)
        m = spin_moments(table)
        s_local = squeezing(m, optimal_angle(m)[:, :1])
        for i in range(table.shape[0]):
            want, _ = oracle.local_squeezing(table[i])
            assert s_local[i] == pytest.approx(want, rel=1e-10)

    def test_epr_angle_stable_under_rounding_noise(self):
        # θ and θ + π/2 are exactly equal minima of the epr objective, and
        # of the plain product without the splitter (the sites stay
        # uncorrelated); rounding noise alone must not pick a different
        # one, or theta_opt, S_minus, S_plus, E_product and duan_sum jump
        table = exact_table("B9p116G", 200.0, np.linspace(0.0, 16.0, 33))
        for beam_splitter, objective in ((True, "epr"), (False, "product")):
            r0 = evaluate_criteria(table, beam_splitter, objective=objective)
            assert np.all(np.abs(r0.theta_opt) <= 0.25 * math.pi)
            rng = np.random.default_rng(0)
            for _ in range(20):
                noisy = table * (1.0 + 1e-15 * rng.standard_normal(table.shape))
                r = evaluate_criteria(noisy, beam_splitter, objective=objective)
                # measured: θ moves by up to 5.7e-10 (epr) and 8.9e-12
                # (product), the criteria by up to 3.9e-11; at tau = 0 the
                # objective is flat in θ and the angle is 0 by rule
                assert np.all(np.abs(r.theta_opt - r0.theta_opt)[1:] <= 1e-6), objective
                for f in CRITERION_COLUMNS:
                    got, want = getattr(r, f), getattr(r0, f)
                    assert np.all(np.abs(got - want) <= 1e-8 * (1.0 + np.abs(want))), (objective, f)
        # at tau = 0 the objective is flat in θ, and the angle is 0 by rule
        rng = np.random.default_rng(1)
        for N in (200.0, 2000.0):
            t0 = exact_table("B9p116G", N, 0.0)
            for table in (t0, t0 * (1.0 + 1e-15 * rng.standard_normal(t0.shape))):
                for beam_splitter in (True, False):
                    for objective in ("product", "epr"):
                        r = evaluate_criteria(table, beam_splitter, objective=objective)
                        assert r.theta_opt[0] == 0.0, (N, beam_splitter, objective)

    def test_objective_no_higher_than_oracle_scan(self):
        # the oracle's dense scan and golden section, on the same covariance
        # matrices, never finds a lower objective than the compiled angle
        cfg = load_config(CONFIGS / "two_step_n2000.json")
        tables = [moment_table(cfg.couplings, cfg.initial, np.asarray(cfg.sweep.taus))]
        for name in ("dynamic_strong_tunneling.json", "two_step_losses_n2000.json"):
            cfg = load_config(CONFIGS / name)
            params = cfg.wigner._replace(n_traj=400, chunk_size=100)
            run = run_ensemble(cfg.couplings, cfg.losses, cfg.initial, cfg.sweep.taus[:4], params)
            tables.append(moment_source(run, params.chunk_size))
        for table in tables:
            for beam_splitter in (True, False):
                V = cd_covariances(table, beam_splitter)
                for objective in ("product", "epr"):
                    theta = evaluate_criteria(table, beam_splitter, objective=objective).theta_opt
                    for i, v in enumerate(V):
                        got = oracle._objective(v, theta[i], objective)
                        want = oracle._objective(v, oracle.optimal_theta(v, objective), objective)
                        assert got <= want + 1e-11 * abs(want), (i, beam_splitter, objective)

    @pytest.mark.parametrize("beam_splitter", [True, False])
    @pytest.mark.parametrize("N, cutoff", [(16.0, 40), (50.0, 90)])
    def test_fock_table_end_to_end(self, N, cutoff, beam_splitter):
        # the whole pipeline fed by the Fock oracle's table
        coup = preset_couplings("B9p116G", N)
        init = InitialState(N_A=N)
        taus = np.linspace(0.0, 8.0, 9)
        closed = moment_table(coup, init, taus)
        fock = fock_moment_table(coup, init, taus, cutoff=cutoff)
        r = evaluate_criteria(closed, beam_splitter)
        at = evaluate_criteria(fock, beam_splitter, theta=r.theta_opt)
        for f in CRITERION_COLUMNS:
            got, want = getattr(at, f), getattr(r, f)
            floor = 1e-12 * np.abs(want).max()
            assert np.all(np.abs(got - want) <= 1e-10 * np.abs(want) + floor), f
        s_closed, s_fock = (squeezing(m, optimal_angle(m)) for m in map(spin_moments, (closed, fock)))
        assert np.all(np.abs(s_fock - s_closed) <= 1e-10 * np.abs(s_closed))
        # identical wells tie θ and θ + π/2 without the splitter
        period = math.pi if beam_splitter else 0.5 * math.pi
        d = (evaluate_criteria(fock, beam_splitter).theta_opt - r.theta_opt) % period
        assert np.all(np.minimum(d, period - d) <= 1e-7)

    def test_local_squeezing_rows(self):
        table = exact_table("B9p116G", 2000.0, np.linspace(0.0, 16.0, 9))
        sweep = SweepParams(taus=tuple(np.linspace(0.0, 16.0, 9)))
        column = criteria_row(table, sweep)["S_local"]
        assert len(column) == 9
        for i, got in enumerate(column):
            s_local, _ = oracle.local_squeezing(table[i])
            assert got == pytest.approx(s_local[0], rel=1e-10, abs=1e-12)


class TestOperatorProducts:
    def test_each_product_built_once_per_sweep(self, monkeypatch):
        # site A's (J^Z, J^X) need 3 products and the four sum/difference
        # spins 10: one per unordered pair, since BA is taken as (AB)†
        calls = []
        mul = NormalPoly.__mul__

        def counting(self, other):
            calls.append(1)
            return mul(self, other)

        monkeypatch.setattr(NormalPoly, "__mul__", counting)
        taus = (0.0, 1.0)
        criteria_row(exact_table("B9p116G", 200.0, taus), SweepParams(taus=taus))
        assert len(calls) == 13


def one(value):
    """A (1, 1) field: one tau, merged ensemble only."""
    return np.array([[value]])


class TestGains:
    def test_definitional_identity_at_unit_gain(self):
        # E_EPR(1,1) relates to E_product through the denominator swap
        j = exact_criteria("B9p116G", 200.0, [1.0, 4.0]).joint
        lhs = e_epr_product(j, GainPair(1.0, 1.0))
        rhs = (
            2.0
            * e_product(j)
            * (np.abs(j.mean_JY_C) + np.abs(j.mean_JY_D))
            / (2.0 * np.abs(j.mean_JY_C))
        )
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_optimal_gains_beat_fixed_gains(self):
        j = exact_criteria("B9p116G", 200.0, np.linspace(0.5, 8.0, 8)).joint
        best = e_epr_product(j, optimal_gains(j))
        assert np.all(best <= e_epr_product(j, GainPair(1.0, 1.0)) + 1e-12)
        assert np.all(best <= e_epr_product(j, GainPair(0.0, 0.0)) + 1e-12)

    def test_local_perturbation_optimality(self):
        rng = np.random.default_rng(21)
        j = joint_moments(exact_table("B9p116G", 200.0, rng.uniform(0.5, 8.0, 6)))
        gains = optimal_gains(j)
        v1, v2 = inference_variances(j, gains)
        for eps in (1e-3, -1e-3):
            w1, _ = inference_variances(j, GainPair(gains.g + eps, gains.g_prime))
            _, w2 = inference_variances(j, GainPair(gains.g, gains.g_prime + eps))
            assert np.all(v1 <= w1 + 1e-12)
            assert np.all(v2 <= w2 + 1e-12)

    def test_zero_covariance_gives_zero_gain(self):
        r = exact_criteria("B9p116G", 200.0, 0.0)
        assert r.g[0] == pytest.approx(0.0, abs=1e-12)

    def test_perfect_correlation_gives_unit_gain(self):
        j = JointSpinMoments(
            theta=np.zeros(1),
            delta_theta=np.full(1, math.pi / 2),
            mean_JY_C=one(50.0),
            mean_JY_D=one(50.0),
            var_minus_theta=one(0.0),
            var_plus_theta=one(4.0),
            var_minus_perp=one(4.0),
            var_plus_perp=one(0.0),
            cov_theta=one(1.0),
            cov_perp=one(-1.0),
            var_JC_theta=one(1.0),
            var_JC_perp=one(1.0),
            var_JD_theta=one(1.0),
            var_JD_perp=one(1.0),
        )
        gains = optimal_gains(j)
        assert gains.g[0] == pytest.approx(1.0)
        assert gains.g_prime[0] == pytest.approx(1.0)

    def test_degenerate_variance_raises(self):
        j = JointSpinMoments(
            theta=np.zeros(1),
            delta_theta=np.full(1, math.pi / 2),
            mean_JY_C=one(0.0),
            mean_JY_D=one(0.0),
            var_minus_theta=one(1.0),
            var_plus_theta=one(1.0),
            var_minus_perp=one(1.0),
            var_plus_perp=one(1.0),
            cov_theta=one(0.0),
            cov_perp=one(0.0),
            var_JC_theta=one(1.0),
            var_JC_perp=one(1.0),
            var_JD_theta=one(0.0),
            var_JD_perp=one(0.0),
        )
        with pytest.raises(DegenerateReferenceError):
            optimal_gains(j)
        with pytest.raises(DegenerateReferenceError):
            e_product(j)


class TestDuanSum:
    def test_separable_states_nonnegative(self):
        # sites A and B stay in a product state without the splitter, so
        # the sum criterion must never signal entanglement there
        rng = np.random.default_rng(17)
        r = exact_criteria("B9p116G", 200.0, rng.uniform(0.0, 10.0, 8), beam_splitter=False)
        assert np.all(r.duan_sum >= -1e-9)

    def test_violated_after_splitter_at_strong_squeezing(self):
        r = exact_criteria("B9p116G", 2000.0, 9.3)  # near the product-criterion optimum
        assert r.duan_sum[0, 0] < 0.0

    def test_consistency_with_s_parameters(self):
        r = exact_criteria("B9p116G", 200.0, 3.0)
        n0 = 0.5 * (abs(r.joint.mean_JY_C[0, 0]) + abs(r.joint.mean_JY_D[0, 0]))
        want = n0 * (r.S_minus[0, 0] + r.S_plus[0, 0] - 2.0)
        assert r.duan_sum[0, 0] == pytest.approx(want, rel=1e-10)


def companion_phases(g, deg):
    """Phases of the roots of z^deg Σ_{|k| <= deg} g_k z^k from one
    companion matrix per row, without deflation (oracle)."""
    coef = np.concatenate([g[:, deg:0:-1], g[:, : deg + 1].conj()], axis=1)
    companion = np.zeros((len(g), 2 * deg, 2 * deg), dtype=complex)
    companion[:, 0] = -coef[:, 1:] / coef[:, :1]
    companion[:, np.arange(1, 2 * deg), np.arange(2 * deg - 1)] = 1.0
    return np.angle(np.linalg.eigvals(companion))


class TestVanishingLead:
    """Once the difference-spin block has dephased to isotropy, the top
    Fourier coefficient of the angle objective's derivative can be exactly
    0; the companion matrix would then divide by it."""

    @pytest.mark.parametrize(
        "N, tau, objective", [(50.0, 40.0, "product"), (50.0, 3830 * 0.01, "epr")]
    )
    def test_sweep_through_a_zero_lead(self, N, tau, objective):
        table = exact_table("B9p116G", N, [0.0, tau])
        r = evaluate_criteria(table, objective=objective)
        assert np.all(np.isfinite(r.theta_opt)) and np.all(np.isfinite(r.E_product))
        v = cd_covariances(table, True)[1]
        got = oracle._objective(v, r.theta_opt[1], objective)
        want = oracle._objective(v, oracle.optimal_theta(v, objective), objective)
        assert got <= want + 1e-11 * abs(want)

    @pytest.mark.parametrize("deg", [2, 6])
    def test_rows_are_deflated_to_their_degree(self, deg):
        rng = np.random.default_rng(3)
        g = rng.standard_normal((4, deg + 1)) + 1j * rng.standard_normal((4, deg + 1))
        g[:, 0] = g[:, 0].real
        samples = rng.standard_normal((4, N_SAMPLE))
        full = companion_phases(g, deg)
        g[1, deg] = 0.0
        g[2, 2:] = 0.0
        g[3, 1:] = 0.0
        phi = _stationary_phases(g, deg, samples)
        assert phi.shape == (4, 2 * deg)
        # a row with a nonzero lead keeps its bits, whatever rows share the batch
        assert np.array_equal(phi[0], _stationary_phases(g[:1], deg, samples[:1])[0])
        if deg == 2:
            # solved in closed form: the companion roots, in another order
            assert np.allclose(np.sort(phi[0]), np.sort(full[0]), rtol=0.0, atol=1e-12)
        else:
            assert np.array_equal(phi[0], full[0])
        for row, d in ((1, deg - 1), (2, 1)):
            roots = companion_phases(g[row : row + 1, : d + 1], d)[0]
            assert np.array_equal(phi[row], roots[np.arange(2 * deg) % (2 * d)])
        # no coefficient left: the phase of the smallest sample
        assert np.all(phi[3] == 2.0 * np.pi / N_SAMPLE * np.argmin(samples[3]))


def quartic_coef(g):
    """Coefficients of z² Σ_{|k| <= 2} g_k z^k, highest power first."""
    return np.concatenate([g[:, 2:0:-1], g[:, :3].conj()], axis=1)


def g_from_roots(roots):
    """The (g_0, g_1, g_2) row, g_0 real, whose quartic has `roots`,
    which must come in pairs z, 1/conj(z) (or lie on the unit circle)."""
    coef = np.poly(roots)
    # coef[4 - k] = λ conj(coef[k]) with |λ| = 1; the factor λ^(-1/2)
    # makes the middle coefficient real
    coef = coef / np.sqrt(coef[4])
    return np.array([coef[2].real, coef[1], coef[0]])


class TestQuarticRoots:
    """The product objective's quartic solved in closed form, against the
    companion matrix's eigenvalues."""

    def test_random_rows_match_companion_roots(self):
        rng = np.random.default_rng(8)
        g = rng.standard_normal((500, 3)) + 1j * rng.standard_normal((500, 3))
        g[:, 0] = g[:, 0].real
        coef = quartic_coef(g)
        roots, ok = _quartic_roots(coef)
        assert ok.all()
        companion = np.zeros((len(g), 4, 4), dtype=complex)
        companion[:, 0] = -coef[:, 1:] / coef[:, :1]
        companion[:, np.arange(1, 4), np.arange(3)] = 1.0
        want = np.linalg.eigvals(companion)
        # each root has a companion root within 1e-12 relative, and back
        dist = np.abs(roots[:, :, None] - want[:, None, :])
        assert np.all(dist.min(axis=2) <= 1e-12 * np.abs(roots))
        assert np.all(dist.min(axis=1) <= 1e-12 * np.abs(want))

    @pytest.mark.parametrize(
        "roots",
        [
            # a near-double pair z, 1/conj(z) just off the unit circle
            [1.00000001 * np.exp(0.7j), np.exp(0.7j) / 1.00000001, 2.0 * np.exp(-2j), 0.5 * np.exp(-2j)],
            # two roots on the unit circle, 1e-9 apart
            [np.exp(1.3j), np.exp((1.3 + 1e-9) * 1j), 1.5 * np.exp(0.2j), np.exp(0.2j) / 1.5],
        ],
        ids=["off_circle", "on_circle"],
    )
    def test_near_double_roots_take_the_companion_path(self, roots):
        g = g_from_roots(np.array(roots))[None]
        assert not _quartic_roots(quartic_coef(g))[1][0]
        phi = _stationary_phases(g, 2, np.zeros((1, N_SAMPLE)))
        assert np.array_equal(phi, companion_phases(g, 2))

    def test_tiny_lead_takes_the_companion_path(self):
        g = np.array([[0.3, 1.0 - 0.5j, 1e-3 * QUARTIC_LEAD_TOL]])
        assert not _quartic_roots(quartic_coef(g))[1][0]
        phi = _stationary_phases(g, 2, np.zeros((1, N_SAMPLE)))
        assert np.array_equal(phi, companion_phases(g, 2))

    def test_scan_objective_no_higher_than_from_companion_roots(self, monkeypatch):
        # long exact scans that reach the dephased rows whose lead
        # vanishes: at every tau, the angle found from the closed-form
        # roots is as good as the one found from companion roots alone
        taus = np.arange(4000) / 100
        tables = [exact_table("B9p116G", N, taus) for N in (50.0, 100.0)]
        got = [evaluate_criteria(table).joint for table in tables]
        none_trusted = lambda coef: (np.zeros((len(coef), 4), dtype=complex), np.zeros(len(coef), bool))
        monkeypatch.setattr(criteria, "_quartic_roots", none_trusted)
        for table, j in zip(tables, got):
            ref = evaluate_criteria(table).joint
            f = j.var_minus_theta * j.var_plus_perp
            f_ref = ref.var_minus_theta * ref.var_plus_perp
            assert np.all(f <= f_ref + 1e-12 * np.abs(f_ref))


class TestTrends:
    def test_both_inference_variances_dip_below_shot_noise(self):
        # the hallmark of the two-step scheme: S- and S+ squeezed together
        r = exact_criteria("B9p116G", 200.0, np.linspace(0.5, 5.0, 10))
        assert np.any((r.S_minus < 1.0) & (r.S_plus < 1.0))

    def test_entanglement_improves_with_atom_number(self):
        mins = {}
        for N, hi in ((200.0, 12.0), (2000.0, 14.0)):
            r = exact_criteria("B9p116G", N, np.linspace(0.5, hi, 28))
            mins[N] = r.E_EPR_product.min()
        assert mins[2000.0] < mins[200.0]

    def test_epr_product_threshold_at_high_n(self):
        r = exact_criteria("B9p116G", 2000.0, 9.3)
        assert r.E_product[0, 0] < 0.5

    def test_fixed_theta_mode(self):
        table = exact_table("B9p116G", 200.0, 3.0)
        r = evaluate_criteria(table, theta=0.25)
        assert r.theta_opt[0] == 0.25
        r_opt = evaluate_criteria(table)
        assert r_opt.E_product[0, 0] <= r.E_product[0, 0] + 1e-12
