import numpy as np
import pytest

from povmlab import modular, operators
from povmlab.modular import (TraceWeight, build_gns, build_modular,
                             flow_phase, kms_residual, left_mult,
                             lemma_modular_residual, modtime_unitarity, vec)
from povmlab.operators import adjoint, imag_power, opnorm, sqrtm_psd
from povmlab.oscillator import gibbs

rng = np.random.default_rng(37)


def rand_c(d):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


def test_vec_roundtrip_and_left_mult():
    A, X = rand_c(4), rand_c(4)
    assert np.array_equal(vec(X).reshape(4, 4), X)
    assert np.linalg.norm(left_mult(A) @ vec(X) - vec(A @ X)) < 1e-12


def test_trace_weight_rejects_nonpositive():
    with pytest.raises(ValueError):
        TraceWeight(np.diag([1.0, -0.5]))


def test_trace_weight_rejects_non_hermitian():
    # (W + W*)/2 = [[1, 1], [1, 1]] is positive, W itself is not Hermitian
    with pytest.raises(ValueError, match="not Hermitian"):
        TraceWeight(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_gns_state_identity_and_dims():
    units = [np.eye(2)[:, [i]] @ np.eye(2)[[j], :]
             for i in range(2) for j in range(2)]
    g = build_gns(units, np.diag([0.7, 0.3]).astype(complex))
    assert g.dim == 4 and g.faithful
    for A in units:
        lhs = g.state(A)
        rhs = np.vdot(g.omega_vec, g.represent(A) @ g.omega_vec)
        assert abs(lhs - rhs) < 1e-12
    pure = build_gns(units, np.diag([1.0, 0.0]).astype(complex))
    assert pure.dim == 2 and not pure.faithful
    for A in units:
        assert abs(pure.state(A)
                   - np.vdot(pure.omega_vec, pure.represent(A) @ pure.omega_vec)) < 1e-12


def rotated(eigenvalues):
    U = np.linalg.qr(rand_c(len(eigenvalues)))[0]
    return U @ np.diag(eigenvalues) @ adjoint(U)


@pytest.mark.parametrize("T, faithful", [
    (np.diag([1.0, 0.0, 0.0]), False),
    (rotated([0.5, 0.3, 0.2]), True),
    # the root 1e-6 of the eigenvalue 1e-12 is far above the threshold 1e-10
    (rotated([1.0 - 1e-12, 1e-12]), True),
], ids=["pure", "faithful", "eigenvalue 1e-12"])
def test_gns_faithful_verdict_is_the_rank_of_the_root(T, faithful):
    # the verdict read off T's spectrum equals the rank test of T^{1/2}
    d = len(T)
    units = [np.eye(d)[:, [i]] @ np.eye(d)[[j], :]
             for i in range(d) for j in range(d)]
    g = build_gns(units, T.astype(complex))
    assert g.faithful is faithful
    assert faithful == (np.linalg.matrix_rank(sqrtm_psd(T), tol=1e-10) == d)


def test_gns_reads_numerically_pure_states_as_pure():
    # v v* for unit v: its d - 1 zero eigenvalues round to about d eps, far
    # above the 1e-20 that the root's rank once resolved, and within the
    # spectrum's rounding allowance 8 d eps lam_max
    draw = np.random.default_rng(0)
    for d in range(2, 9):
        units = [np.eye(d)[:, [i]] @ np.eye(d)[[j], :]
                 for i in range(d) for j in range(d)]
        for _ in range(200):
            v = draw.standard_normal(d) + 1j * draw.standard_normal(d)
            v = v / np.linalg.norm(v)
            g = build_gns(units, np.outer(v, v.conj()))
            assert not g.faithful and g.dim == d
    # an eigenvalue of 1e-8 lies far above that rounding
    units = [np.eye(3)[:, [i]] @ np.eye(3)[[j], :]
             for i in range(3) for j in range(3)]
    g = build_gns(units, rotated([0.6, 0.4 - 1e-8, 1e-8]))
    assert g.faithful and g.dim == 9


def test_modtime_unitarity_forms_each_power_once(monkeypatch):
    # modtime.commuting's times 0, 0.4 and 1.1 and the sums 0.4 and 1.5
    # of the group law need four distinct powers of T
    calls, real = [], modular.spectral_power
    monkeypatch.setattr(modular, "spectral_power",
                        lambda spectrum, p: calls.append(p) or real(spectrum, p))
    T = gibbs(0.7, 4)
    modtime_unitarity(TraceWeight(T), T, [0.0, 0.4, 1.1],
                      [(rand_c(4), rand_c(4))])
    assert all(p.real == 0 for p in calls)
    assert sorted(p.imag for p in calls) == [0.0, 0.4, 1.1, 1.5]


def test_gns_representation_is_multiplicative_when_faithful():
    units = [np.eye(2)[:, [i]] @ np.eye(2)[[j], :]
             for i in range(2) for j in range(2)]
    g = build_gns(units, np.diag([0.6, 0.4]).astype(complex))
    A, B = rand_c(2), rand_c(2)
    piA = adjoint(g.basis) @ left_mult(A) @ g.basis
    piB = adjoint(g.basis) @ left_mult(B) @ g.basis
    piAB = adjoint(g.basis) @ left_mult(A @ B) @ g.basis
    assert opnorm(piA @ piB - piAB) < 1e-12


def test_modular_closed_forms():
    T = gibbs(1.0, 5)
    triple = build_modular(T)
    assert triple.closed_form_residuals["delta_conjugation"] < 1e-8
    assert triple.closed_form_residuals["j_adjoint"] < 1e-8
    assert triple.closed_form_residuals["j_involution"] < 1e-8
    assert triple.closed_form_residuals["s_defining"] < 1e-8
    eigenvalues, _ = triple.delta_spectrum
    assert eigenvalues[0] > 0           # ascending, so this is the minimum


def test_closed_form_residuals_computed_on_first_read():
    # building the triple computes no carrier data; the first read of the
    # closed forms computes all of it, once
    triple = build_modular(gibbs(1.0, 4))
    carrier = {"S_mat", "Delta", "delta_spectrum", "J_mat"}
    assert not carrier & set(vars(triple))
    assert "closed_form_residuals" not in vars(triple)
    residuals = triple.closed_form_residuals
    assert vars(triple)["closed_form_residuals"] is residuals
    assert set(residuals) == {"delta_conjugation", "j_adjoint",
                              "j_involution", "s_defining"}
    assert carrier <= set(vars(triple))


def test_flow_on_algebra_matches_carrier():
    # the carrier flow through the decomposed Delta of a left
    # multiplication is the left multiplication of the algebra flow, the
    # conjugation by imag_power, which is V e^{-it log lam} V* of T's eigh
    # bit for bit
    T = gibbs(0.8, 4)
    triple = build_modular(T)
    lam, V = np.linalg.eigh(T)
    A = rand_c(4)
    for t in (0.6, 0.3, -1.1, 2.0):
        U = imag_power(T, -t)
        assert np.array_equal(U, (V * np.exp(1j * -t * np.log(lam)))
                              @ adjoint(V))
        carrier = triple.flow(t, left_mult(A))
        assert opnorm(carrier - left_mult(U @ A @ adjoint(U))) < 1e-10


def test_sqrt_delta_swaps_sides():
    # Delta^{1/2}(A Omega) = Omega A with Omega = T^{1/2}
    T = gibbs(1.0, 4)
    triple = build_modular(T)
    sq = sqrtm_psd(T)
    for _ in range(5):
        A = rand_c(4)
        y = triple.delta_power(0.5) @ vec(A @ sq)
        assert np.linalg.norm(y - vec(sq @ A)) < 1e-8


def test_lemma_modular_residual():
    triple = build_modular(gibbs(1.0, 4))
    for _ in range(5):
        assert lemma_modular_residual(triple, rand_c(4)) < 1e-8


def test_modular_data_is_computed_once(monkeypatch):
    # build_modular decomposes T exactly once; Omega = T^{1/2}, bit for bit
    # sqrtm_psd's, so reading the closed forms, running the lemma check
    # and flowing carrier operators decompose no d x d matrix again (Delta,
    # d^2 x d^2, is decomposed on first read)
    d, shapes = 4, []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counting(H, *args, real=real, **kwargs):
            shapes.append(np.shape(H)[-2:])
            return real(H, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    T = gibbs(1.0, d)
    triple = build_modular(T)
    assert shapes == [(d, d)]
    assert np.array_equal(triple.omega, sqrtm_psd(T))
    del shapes[:]
    assert triple.closed_form_residuals["s_defining"] < 1e-8
    for _ in range(5):
        assert lemma_modular_residual(triple, rand_c(d)) < 1e-8
    for t in (0.3, -1.1):
        triple.flow(t, left_mult(rand_c(d)))
    assert (d, d) not in shapes


@pytest.mark.parametrize("d", [1, 2, 5])
def test_s_matrix_matches_dense_commutation_product(d):
    # the column permutation in build_modular equals the product with the
    # dense 0/1 matrix K, K vec(X) = vec(X^T), bit for bit
    T = gibbs(0.9, d)
    sq = sqrtm_psd(T)
    K = np.zeros((d * d, d * d))
    for i in range(d):
        for j in range(d):
            K[i * d + j, j * d + i] = 1.0
    dense = np.kron(np.linalg.inv(sq), sq.T) @ K
    assert np.array_equal(build_modular(T).S_mat, dense)


def test_kms_residual_gibbs_and_tracial():
    T = gibbs(1.0, 6)
    for _ in range(10):
        assert kms_residual(T, rand_c(6), rand_c(6)) < 1e-12
    assert kms_residual(np.eye(6) / 6, rand_c(6), rand_c(6)) < 1e-12


def test_kms_residual_rejects_non_hermitian_density():
    # (T + T*)/2 has spectrum {0.25, 0.75} and trace cyclicity holds for any
    # invertible T, so only the Hermiticity test can refuse this input
    T = np.array([[0.5, 0.5], [0.0, 0.5]])
    A = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(ValueError, match="not Hermitian"):
        kms_residual(T, A, A.T)


def test_modtime_unitarity_decomposes_t_once(monkeypatch):
    # one herm_spectrum of T serves every flow application, and the report
    # equals the one built from imag_power per application bit for bit
    T = gibbs(0.7, 5)
    w = TraceWeight(T)
    ts = [0.0, 0.4, 1.1]
    samples = [(rand_c(5), rand_c(5))]

    def U(t, A):
        P = imag_power(T, t)
        return P @ A @ adjoint(P)

    A, B = samples[0]
    iso = [float(abs(w.inner(U(t, A), U(t, B)) - w.inner(A, B))) for t in ts]
    group = [opnorm(U(t1, U(t2, A)) - U(t1 + t2, A))
             for t1, t2 in zip(ts, ts[1:])]
    calls = []
    counted = modular.herm_spectrum

    def counting(*args, **kwargs):
        calls.append(1)
        return counted(*args, **kwargs)

    # imag_power reaches it through the operators module
    monkeypatch.setattr(modular, "herm_spectrum", counting)
    monkeypatch.setattr(operators, "herm_spectrum", counting)
    rep = modtime_unitarity(w, T, ts, samples)
    assert len(calls) == 1
    assert [c["residual"] for c in rep["isometry"]] == iso
    assert [g["residual"] for g in rep["group_law"]] == group
    assert rep["max_isometry_residual"] == max(iso)


def test_modtime_unitarity_commuting_weight():
    T = gibbs(1.0, 4)
    w = TraceWeight(T)
    rep = modtime_unitarity(w, T, [0.0, 0.5, 1.3],
                            [(rand_c(4), rand_c(4)) for _ in range(3)])
    assert rep["unitary"]
    assert all(g["residual"] < 1e-10 for g in rep["group_law"])


def test_modtime_detects_noncommuting_weight():
    W = np.diag([1.0, 2.0]).astype(complex)
    T = np.array([[2.0, 1.0], [1.0, 2.0]], dtype=complex)
    A = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    rep = modtime_unitarity(TraceWeight(W), T, [1.0], [(A, A)])
    assert rep["max_isometry_residual"] >= 1e-3
    assert not rep["unitary"]


def test_build_modular_condition_guard():
    with pytest.raises(ValueError):
        build_modular(gibbs(5.0, 12))


def test_build_modular_refuses_a_density_off_hermitian_by_more_than_tol():
    # a skew part of 1e-9 lies within the NUMERIC_TOL that sqrtm_psd allows
    # but beyond DEFAULT_TOL: T's one decomposition refuses it, and a skew
    # part within DEFAULT_TOL is still taken
    T = gibbs(1.0, 4)
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 1], skew[1, 0] = 1e-9, -1e-9
    with pytest.raises(ValueError, match="not Hermitian within tolerance"):
        build_modular(T + skew)
    assert build_modular(T + skew / 100).closed_form_residuals[
        "delta_conjugation"] < 1e-8


def test_imag_power_flow_direction():
    # sigma_t(A) = T^{-it} A T^{it} for diagonal T acts entrywise by
    # (lam_i/lam_j)^{-it}; pin one entry of the imag_power flow and of the
    # flow_phase conjugation to freeze the sign convention
    T = np.diag([0.75, 0.25]).astype(complex)
    A = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    t = 0.4
    U = imag_power(T, -t)
    expected = np.exp(-1j * t * np.log(0.75 / 0.25))
    for out in (U @ A @ adjoint(U),
                operators.diag_conjugate(flow_phase(T, t), A)):
        assert abs(out[0, 1] - expected) < 1e-12


def per_draw_closed_form_residuals(triple):
    """Reference: the closed-form residuals as a loop over the 8 seeded X,
    one matrix-vector product and one vector norm per draw."""
    d = triple.d
    draw = np.random.default_rng(0)
    worst_j = worst_s = 0.0
    for _ in range(8):
        X = draw.standard_normal((d, d)) + 1j * draw.standard_normal((d, d))
        y = triple.J_mat @ np.conj(vec(X))
        worst_j = max(worst_j, float(np.linalg.norm(y - vec(adjoint(X)))))
        s = (triple.S_mat @ np.conj(vec(X @ triple.omega))
             - vec(adjoint(X) @ triple.omega))
        worst_s = max(worst_s, float(np.linalg.norm(s)))
    return worst_j, worst_s


@pytest.mark.parametrize("d", [2, 4, 6])
def test_stacked_closed_forms_equal_the_per_draw_loop(d):
    # the batched matrix-vector products round as the single ones do
    T = rand_c(d)
    T = T @ adjoint(T) + np.eye(d)
    triple = build_modular(T / np.trace(T).real)
    out = triple.closed_form_residuals
    assert (out["j_adjoint"], out["s_defining"]) == \
        per_draw_closed_form_residuals(triple)


@pytest.mark.parametrize("d", [1, 3, 6])
def test_stacked_kms_and_lemma_equal_the_worst_single_draw(d):
    T = rand_c(d)
    T = T @ adjoint(T) + np.eye(d)
    T = T / np.trace(T).real
    A, B = np.stack([rand_c(d) for _ in range(7)]), np.stack(
        [rand_c(d) for _ in range(7)])
    assert kms_residual(T, A, B) == max(kms_residual(T, a, b)
                                        for a, b in zip(A, B))
    assert type(kms_residual(T, A[0], B[0])) is float
    triple = build_modular(T)
    assert lemma_modular_residual(triple, A) == max(
        lemma_modular_residual(triple, a) for a in A)
    assert np.array_equal(vec(A).reshape(A.shape), A)
    assert np.array_equal(triple.apply_J(vec(A)),
                          np.stack([triple.apply_J(x) for x in vec(A)]))


@pytest.mark.parametrize("d", [1, 4, 12, 20])
@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
def test_flow_phase_conjugation_is_the_eigh_flow(d, beta):
    # the phase read off the diagonal density against the flow through the
    # eigendecomposition of T, within a rounding bound of 64 d eps ||A||
    T = gibbs(beta, d)
    for t in (-1.0, 0.37, 1.0):
        A = rand_c(d)
        phase = flow_phase(T, t)
        assert np.allclose(np.abs(phase), 1.0, rtol=0, atol=1e-15)
        U = imag_power(T, -t)
        defect = operators.diag_conjugate(phase, A) - U @ A @ adjoint(U)
        assert opnorm(defect) <= 64 * d * np.finfo(float).eps * opnorm(A)


def test_flow_phase_needs_a_diagonal_density():
    U = np.linalg.qr(rand_c(4))[0]
    T = U @ gibbs(1.0, 4) @ adjoint(U)
    with pytest.raises(ValueError, match="needs a diagonal density"):
        flow_phase(T, 0.5)
