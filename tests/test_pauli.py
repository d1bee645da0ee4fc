"""Pauli basis construction and the coefficient transform."""

import itertools

import numpy as np
import pytest

from xorgap import SamplerConfig, Tensor3, build_basis, fourier, hermitize, inverse_fourier, sample_tensor
from xorgap.pauli import pauli_expectations

I2 = np.eye(2)
X2 = np.array([[0, 1], [1, 0]], dtype=complex)
Y2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z2 = np.array([[1, 0], [0, -1]], dtype=complex)


class TestBasis:
    def test_single_qubit_matrices(self):
        basis = build_basis(1)
        assert basis.labels == ("I", "X", "Y", "Z")
        for got, want in zip(basis.elements, (I2, X2, Y2, Z2)):
            assert np.array_equal(got, want)

    def test_two_qubit_orthogonality(self):
        basis = build_basis(2)
        assert len(basis) == 16
        G = np.array(
            [
                [np.trace(P @ Q.conj().T) for Q in basis.elements]
                for P in basis.elements
            ]
        )
        assert np.abs(G - 4.0 * np.eye(16)).max() <= 1e-12

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_elements_are_observables(self, n):
        basis = build_basis(n)
        N = basis.N
        assert np.array_equal(basis.elements[0], np.eye(N))
        for E in basis.elements:
            assert np.abs(E - E.conj().T).max() == 0
            assert np.abs(E @ E - np.eye(N)).max() <= 1e-12

    def test_lexicographic_order_leftmost_significant(self):
        basis = build_basis(2)
        assert basis.labels[:4] == ("II", "IX", "IY", "IZ")
        assert basis.labels[4] == "XI"
        assert np.array_equal(basis.elements[4], np.kron(X2, I2))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_stack_matches_kron_chain(self, n):
        # the broadcast stack is the np.kron chain entry for entry, and the
        # labels are its letters
        paulis = (I2.astype(complex), X2, Y2, Z2)
        want, labels = [], []
        for digits in itertools.product(range(4), repeat=n):
            M = paulis[digits[0]]
            for d in digits[1:]:
                M = np.kron(M, paulis[d])
            want.append(M)
            labels.append("".join("IXYZ"[d] for d in digits))
        basis = build_basis(n)
        assert isinstance(basis.elements, np.ndarray) and not basis.elements.flags.writeable
        assert np.array_equal(basis.elements, np.array(want))
        assert basis.labels == tuple(labels)

    def test_qubit_range_guard(self):
        with pytest.raises(ValueError, match="dense Pauli basis"):
            build_basis(0)
        with pytest.raises(ValueError, match="dense Pauli basis"):
            build_basis(5)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_plan_rebuilds_conjugate_paulis(self, n):
        # each p's XOR offset x, Hadamard row z and phase (-i)^y give
        # conj(P_p)[a, b] = (-i)^y (-1)^{z.b} [b = a ^ x] exactly, y counts
        # the Y letters, and pick / place are inverse permutations
        from xorgap.pauli import _plan

        plan = _plan(n)
        basis = build_basis(n)
        N = basis.N
        a = np.arange(N)
        parity = np.array([[bin(z & b).count("1") % 2 for b in a] for z in a])
        assert np.array_equal(plan.H, 1.0 - 2.0 * parity)
        assert np.array_equal(plan.y, [label.count("Y") for label in basis.labels])
        assert np.array_equal(plan.pick[plan.place], np.arange(N * N))
        for p in range(N * N):
            want = np.zeros((N, N), dtype=complex)
            want[a, a ^ plan.x[p]] = plan.phase[p] * plan.H[plan.z[p], a ^ plan.x[p]]
            assert np.array_equal(basis.elements[p].conj(), want), basis.labels[p]


class TestFourier:
    def test_identity_tensor_single_peak(self):
        for n in (1, 2):
            N = 2**n
            F = fourier(Tensor3(n, np.eye(N**3))).coefficients
            assert F[0, 0, 0] == pytest.approx(N**3, rel=1e-12)
            F2 = F.copy()
            F2[0, 0, 0] = 0
            assert np.abs(F2).max() <= 1e-10

    def test_basis_product_tensor_single_peak(self):
        n, N = 1, 2
        basis = build_basis(n)
        p0, q0, r0 = 1, 2, 3  # X, Y, Z
        M = np.kron(np.kron(basis.elements[p0], basis.elements[q0]), basis.elements[r0])
        F = fourier(Tensor3(n, M)).coefficients
        assert F[p0, q0, r0] == pytest.approx(N**3, rel=1e-12)
        F2 = F.copy()
        F2[p0, q0, r0] = 0
        assert np.abs(F2).max() <= 1e-10

    def test_matches_direct_inner_products(self):
        T = sample_tensor(1, SamplerConfig(seed=5))
        basis = build_basis(1)
        F = fourier(T).coefficients
        rng = np.random.default_rng(0)
        for _ in range(20):
            p, q, r = rng.integers(0, 4, 3)
            K = np.kron(
                np.kron(basis.elements[p], basis.elements[q]), basis.elements[r]
            )
            direct = np.sum(T.matrix * K.conj())
            assert F[p, q, r] == pytest.approx(direct, rel=1e-9, abs=1e-12)

    def test_parseval_random_tensor(self):
        T = sample_tensor(1, SamplerConfig(seed=42))
        F = fourier(T).coefficients
        assert np.sum(np.abs(F) ** 2) == pytest.approx(
            8.0 * T.frobenius_norm() ** 2, rel=1e-12
        )

    def test_linear(self):
        rng = np.random.default_rng(7)
        A = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        B = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        a, b = rng.standard_normal(2)
        lhs = fourier(Tensor3(1, a * A + b * B)).coefficients
        rhs = a * fourier(Tensor3(1, A)).coefficients + b * fourier(Tensor3(1, B)).coefficients
        assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_from_g_matches_dense(self, n):
        # the real transform from g against an explicit contraction of the
        # built matrix with the dense basis; odd-Y triples and I/Z-only
        # strings (the collision entries) come out exactly 0
        N = 2**n
        basis = build_basis(n)
        B = basis.elements.conj()
        y = np.array([label.count("Y") for label in basis.labels])
        odd = (y[:, None, None] + y[:, None] + y) % 2 == 1
        iz = np.array([set(label) <= set("IZ") for label in basis.labels])
        tensors = (
            sample_tensor(n, SamplerConfig(seed=n)),
            sample_tensor(n, SamplerConfig(distribution="bernoulli", seed=n)),
            Tensor3(n, raw_g=np.ones(N**3)),
        )
        for T in tensors:
            got = fourier(T).coefficients
            want = np.einsum("pia,qjb,rkc,ijkabc->pqr", B, B, B, T.matrix.reshape((N,) * 6), optimize=True)
            assert got.dtype == np.float64 and got.shape == (N * N,) * 3
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
            assert np.all(got[odd] == 0.0)
            assert np.all(got[iz] == 0.0) and np.all(got[:, iz] == 0.0) and np.all(got[:, :, iz] == 0.0)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_dense_slabs_match_einsum(self, n):
        # a general tensor's table by XOR offsets of player 1 against one
        # einsum with the conjugated basis, on a complex tensor, a Hermitian
        # one given by its matrix, and a hermitized part read from its parent
        D = 8**n
        rng = np.random.default_rng(50 + n)
        M = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        N, B = 2**n, build_basis(n).elements.conj()
        for T in (Tensor3(n, M), Tensor3(n, (M + M.conj().T) / 2.0), hermitize(Tensor3(n, M))):
            want = np.einsum("pia,qjb,rkc,ijkabc->pqr", B, B, B, T.matrix.reshape((N,) * 6), optimize=True)
            got = fourier(T).coefficients
            assert got.shape == want.shape and got.dtype == np.complex128
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_pauli_table_is_fourier_bitwise(self, n):
        # the ALS table's planes, filled from the same slabs, are Re and Im
        # of fourier(T) over N^{3/2} bit for bit: one plane for a Hermitian
        # tensor, two for any other
        from xorgap.tensor import _pauli_table

        D = 8**n
        rng = np.random.default_rng(70 + n)
        M = rng.standard_normal((D, D)) + 1j * rng.standard_normal((D, D))
        for T in (Tensor3(n, M), hermitize(Tensor3(n, M)), sample_tensor(n, SamplerConfig(seed=n))):
            C = fourier(T).coefficients
            planes = np.stack([C.real, C.imag]) if not T.is_hermitian() else C.real
            assert np.array_equal(_pauli_table(T), planes / T.N**1.5)

    def test_dense_fourier_memory(self):
        # at n = 3 the output is one complex Q^3 array, 4.19 MB; the slabs
        # add at most two arrays of N^5 entries at once (0.5 MB each), with
        # no reordered copy of the matrix and no second complex table
        import tracemalloc

        rng = np.random.default_rng(0)
        T = Tensor3(3, rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512)))
        tracemalloc.start()
        try:
            fourier(T)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7e6

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("step", [1, 3])
    def test_fourier_slabs_match_built_matrix(self, monkeypatch, n, step):
        # slabs of one question, and of three, which divides no Q = 4^n,
        # still give the table of the built matrix
        from xorgap import pauli

        Q = 4**n
        monkeypatch.setattr(pauli, "_BLOCK_BYTES", 16 * Q * Q * step)
        T = sample_tensor(n, SamplerConfig(seed=60 + n))
        B = build_basis(n).elements.conj()
        want = np.einsum("pia,qjb,rkc,ijkabc->pqr", B, B, B, T.matrix.reshape((T.N,) * 6), optimize=True)
        slabs = list(pauli._rank_one_slabs(n, T.raw_g, True))
        assert [ps.stop - ps.start for ps, _ in slabs] == [step] * (Q // step) + [Q % step] * (Q % step > 0)
        assert all(slab.shape == (ps.stop - ps.start, Q, Q) for ps, slab in slabs)
        got = fourier(T).coefficients
        assert np.array_equal(got, np.concatenate([slab for _, slab in slabs]))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_n4_slab_matches_basis_contraction(self):
        # one slab of player 1's questions at n = 4 (one question, XZYX)
        # against the basis contraction of the built matrix, restricted to it
        from xorgap import pauli

        n, Q = 4, 256
        T = sample_tensor(n, SamplerConfig(seed=64))
        p = 0b01_11_10_01
        ps, slab = next((ps, slab) for ps, slab in pauli._rank_one_slabs(n, T.raw_g, True) if ps.start == p)
        assert ps == slice(p, p + 1) and build_basis(n).labels[p] == "XZYX"
        E = build_basis(n).elements.conj()
        N = 16
        off = 1.0 - np.eye(N)
        G = T.raw_g.reshape(N, N * N)
        # W ×1 conj(P_p) of the masked g g^T, without its 16.7M-entry matrix
        W1 = (G.T @ (E[p] * off) @ G).reshape(N, N, N, N) * off[:, None, :, None] * off[None, :, None, :]
        W1 = W1.transpose(0, 2, 1, 3).reshape(Q, Q)  # ((j, j'), (k, k'))
        B = E.reshape(Q, -1)
        want = B @ W1 @ B.T
        assert np.abs(slab[0] - want).max() <= 1e-12 * np.abs(want).max()

    def test_hermitian_tensor_has_real_coefficients(self):
        T = sample_tensor(1, SamplerConfig(seed=3))
        F = fourier(T).coefficients
        assert np.abs(F.imag).max() <= 1e-10 * max(1.0, np.abs(F.real).max())


class TestCoordinatePair:
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_matches_kron_paulis(self, n):
        # on 64 seeded indices (all of them at n <= 3), against explicit
        # n-fold np.kron Paulis: a unit coordinate vector gives conj(P_p)
        # exactly, and the coefficients of a random complex stack are
        # <F, P_p>; at n = 5 no dense basis exists to compare with
        from xorgap.pauli import _coefficients, _matrices

        N, Q = 2**n, 4**n
        rng = np.random.default_rng(70 + n)
        ps = np.arange(Q) if Q <= 64 else rng.choice(Q, 64, replace=False)
        paulis = (I2.astype(complex), X2, Y2, Z2)
        F = rng.standard_normal((2, N, N)) + 1j * rng.standard_normal((2, N, N))
        c = _coefficients(F)
        assert c.shape == (2, Q)
        units = np.zeros((len(ps), Q))
        units[np.arange(len(ps)), ps] = 1.0
        rebuilt = _matrices(units)
        for k, p in enumerate(ps):
            P = np.ones((1, 1), dtype=complex)
            for shift in range(2 * n - 2, -1, -2):
                P = np.kron(P, paulis[(p >> shift) & 3])
            assert np.array_equal(rebuilt[k], P.conj())
            want = np.sum(F * P.conj(), axis=(1, 2))
            assert np.abs(c[:, p] - want).max() <= 1e-12 * np.abs(F).sum()


class TestInverse:
    def test_zero_table_round_trip(self):
        from xorgap.pauli import FourierTable

        F = FourierTable(n=1, N=2, coefficients=np.zeros((4, 4, 4), dtype=complex))
        T = inverse_fourier(F)
        assert np.abs(T.matrix).max() == 0

    def test_single_identity_peak_gives_identity(self):
        from xorgap.pauli import FourierTable

        C = np.zeros((4, 4, 4), dtype=complex)
        C[0, 0, 0] = 8.0
        T = inverse_fourier(FourierTable(n=1, N=2, coefficients=C))
        assert np.abs(T.matrix - np.eye(8)).max() <= 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    def test_round_trip(self, n):
        T = sample_tensor(n, SamplerConfig(seed=42))
        back = inverse_fourier(fourier(T))
        assert np.abs(back.matrix - T.matrix).max() < 1e-9


class TestExpectations:
    def test_product_state_factorizes(self):
        # |0> eigenstates: <Z> = 1, <X> = <Y> = 0 on each site
        psi = np.zeros(8)
        psi[0] = 1.0
        w = pauli_expectations(1, psi)
        assert w[0, 0, 0] == pytest.approx(1.0)
        assert w[3, 3, 3] == pytest.approx(1.0)  # ZZZ
        assert abs(w[1, 0, 0]) <= 1e-12  # X on first site
        assert np.abs(w).max() <= 1.0 + 1e-12

    def test_matches_direct_sandwich(self):
        rng = np.random.default_rng(11)
        psi = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        psi /= np.linalg.norm(psi)
        w = pauli_expectations(1, psi)
        basis = build_basis(1)
        for _ in range(10):
            p, q, r = rng.integers(0, 4, 3)
            K = np.kron(np.kron(basis.elements[p], basis.elements[q]), basis.elements[r])
            assert w[p, q, r] == pytest.approx((psi.conj() @ K @ psi).real, abs=1e-12)

    def test_whole_tables_refuse_n5(self):
        # the streamed l1 and classical value take n = 5, but a whole table
        # there would hold 4^15 entries, so every whole-table call refuses it
        from xorgap import ScaleError, game_from_tensor

        with pytest.raises(ScaleError, match="needs n <= 4, got n = 5"):
            fourier(Tensor3(5, raw_g=np.ones(2**15)))
        with pytest.raises(ScaleError, match="needs n <= 4, got n = 5"):
            pauli_expectations(5, np.ones(2**15) / 2**7.5)
        with pytest.raises(ScaleError, match="needs n <= 4, got n = 5"):
            game_from_tensor(Tensor3(5, raw_g=np.ones(2**15)))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_contraction_no_density_matrix(self, n, monkeypatch):
        # the table is the players' correlation contraction: no density
        # matrix is wrapped in a tensor and no coefficient transform runs
        from xorgap import pauli

        def forbidden(*args, **kwargs):
            raise AssertionError("pauli_expectations built a tensor or ran fourier")

        monkeypatch.setattr(pauli, "fourier", forbidden)
        monkeypatch.setattr(pauli, "Tensor3", forbidden)
        rng = np.random.default_rng(20 + n)
        psi = rng.standard_normal(8**n) + 1j * rng.standard_normal(8**n)
        psi /= np.linalg.norm(psi)
        w = pauli_expectations(n, psi)
        E = build_basis(n).elements
        assert w.shape == (4**n,) * 3 and w.dtype == np.float64
        for p, q, r in rng.integers(0, 4**n, (20, 3)):
            K = np.kron(np.kron(E[p], E[q]), E[r])
            assert abs(w[p, q, r] - (psi.conj() @ K @ psi).real) <= 1e-12
