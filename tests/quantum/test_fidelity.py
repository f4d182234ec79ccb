"""Unit and property tests for fidelity and entanglement measures."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import QuantumStateError, ValidationError
from repro.quantum.channels import amplitude_damping, depolarizing
from repro.quantum.fidelity import (
    bell_pair_after_loss,
    concurrence,
    entanglement_fidelity_from_transmissivity,
    negativity,
    pure_state_fidelity,
    state_fidelity,
    transmissivity_for_fidelity,
)
from repro.quantum.states import (
    bell_state,
    density_matrix,
    ket,
    maximally_mixed,
    random_pure_state,
)

etas = st.floats(min_value=0.0, max_value=1.0)


class TestStateFidelity:
    def test_identical_states(self):
        rho = maximally_mixed(1)
        assert state_fidelity(rho, rho) == pytest.approx(1.0)

    def test_orthogonal_pure_states(self):
        a = density_matrix(ket(0))
        b = density_matrix(ket(1))
        assert state_fidelity(a, b) == pytest.approx(0.0, abs=1e-12)

    def test_symmetry(self, rng):
        a = depolarizing(0.3).on_qubit(0, 1).apply(density_matrix(random_pure_state(1, rng)))
        b = depolarizing(0.1).on_qubit(0, 1).apply(density_matrix(random_pure_state(1, rng)))
        assert state_fidelity(a, b) == pytest.approx(state_fidelity(b, a))

    def test_pure_vs_mixed_known_value(self):
        rho = density_matrix(ket(0))
        assert state_fidelity(rho, maximally_mixed(1)) == pytest.approx(0.5)

    def test_sqrt_convention_is_square_root(self, rng):
        a = density_matrix(random_pure_state(2, rng))
        b = maximally_mixed(2)
        f2 = state_fidelity(a, b, convention="squared")
        f1 = state_fidelity(a, b, convention="sqrt")
        assert f1 == pytest.approx(np.sqrt(f2))

    def test_matches_pure_state_shortcut(self, rng):
        psi = random_pure_state(2, rng)
        rho = depolarizing(0.2).on_qubit(1, 2).apply(density_matrix(psi))
        full = state_fidelity(density_matrix(psi), rho, convention="squared")
        fast = pure_state_fidelity(psi, rho, convention="squared")
        assert full == pytest.approx(fast, abs=1e-6)

    def test_shape_mismatch(self):
        with pytest.raises(QuantumStateError):
            state_fidelity(maximally_mixed(1), maximally_mixed(2))

    def test_bad_convention(self):
        with pytest.raises(ValidationError):
            state_fidelity(maximally_mixed(1), maximally_mixed(1), convention="nope")


class TestPureStateFidelity:
    def test_rejects_matrix_target(self):
        with pytest.raises(QuantumStateError):
            pure_state_fidelity(maximally_mixed(1), maximally_mixed(1))

    def test_rejects_zero_target(self):
        with pytest.raises(QuantumStateError):
            pure_state_fidelity(np.zeros(2), maximally_mixed(1))

    def test_normalises_target(self):
        f = pure_state_fidelity(2.0 * ket(0), density_matrix(ket(0)))
        assert f == pytest.approx(1.0)


class TestBellPairAfterLoss:
    def test_perfect_channel(self):
        rho = bell_pair_after_loss(1.0)
        np.testing.assert_allclose(rho, density_matrix(bell_state()), atol=1e-12)

    def test_dead_channel_leaves_classical_mixture(self):
        rho = bell_pair_after_loss(0.0)
        # |00> and |10> each with probability 1/2, no coherence.
        assert rho[0, 0].real == pytest.approx(0.5)
        assert rho[2, 2].real == pytest.approx(0.5)
        assert abs(rho[0, 3]) == pytest.approx(0.0, abs=1e-12)

    def test_damped_qubit_choice_symmetric_fidelity(self):
        f0 = pure_state_fidelity(bell_state(), bell_pair_after_loss(0.6, damped_qubit=0))
        f1 = pure_state_fidelity(bell_state(), bell_pair_after_loss(0.6, damped_qubit=1))
        assert f0 == pytest.approx(f1)


class TestClosedForm:
    @given(etas)
    def test_property_matches_kraus_pipeline(self, eta):
        """Closed form F = (1+sqrt(eta))/2 equals the explicit Kraus result."""
        rho = bell_pair_after_loss(eta)
        measured = pure_state_fidelity(bell_state(), rho, convention="sqrt")
        closed = entanglement_fidelity_from_transmissivity(eta, convention="sqrt")
        assert measured == pytest.approx(float(closed), abs=1e-12)

    def test_paper_operating_point(self):
        """eta = 0.7 gives F > 0.9 (Section IV-A)."""
        f = entanglement_fidelity_from_transmissivity(0.7)
        assert 0.9 < float(f) < 0.92

    def test_squared_convention(self):
        f = entanglement_fidelity_from_transmissivity(0.7, convention="squared")
        assert float(f) == pytest.approx(0.8433, abs=1e-3)

    @pytest.mark.parametrize("eta", [0.0, 1e-9, 0.123456789, 0.5, 1.0])
    @pytest.mark.parametrize("convention", ["sqrt", "squared"])
    def test_scalar_fast_path_equals_array(self, eta, convention):
        """The scalar fast path of the serve hot loop stays exact."""
        scalar = entanglement_fidelity_from_transmissivity(eta, convention=convention)
        array = entanglement_fidelity_from_transmissivity(
            np.array([eta]), convention=convention
        )
        assert float(scalar) == float(array[0])

    def test_vectorized(self):
        out = entanglement_fidelity_from_transmissivity(np.linspace(0, 1, 11))
        assert out.shape == (11,)
        assert out[0] == pytest.approx(0.5)
        assert out[-1] == pytest.approx(1.0)

    def test_monotone_increasing(self):
        out = entanglement_fidelity_from_transmissivity(np.linspace(0, 1, 101))
        assert np.all(np.diff(out) > 0)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            entanglement_fidelity_from_transmissivity(1.2)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_property_inverse_roundtrip(self, eta):
        f = float(entanglement_fidelity_from_transmissivity(eta))
        assert transmissivity_for_fidelity(f) == pytest.approx(eta, abs=1e-9)

    def test_inverse_rejects_unreachable(self):
        with pytest.raises(ValidationError):
            transmissivity_for_fidelity(0.4)


class TestConcurrence:
    def test_bell_state_maximal(self):
        assert concurrence(density_matrix(bell_state())) == pytest.approx(1.0)

    def test_product_state_zero(self):
        rho = density_matrix(ket(0, 1))
        assert concurrence(rho) == pytest.approx(0.0, abs=1e-9)

    def test_maximally_mixed_zero(self):
        assert concurrence(maximally_mixed(2)) == pytest.approx(0.0, abs=1e-9)

    def test_decreases_with_damping(self):
        c_high = concurrence(bell_pair_after_loss(0.9))
        c_low = concurrence(bell_pair_after_loss(0.3))
        assert c_high > c_low > 0.0

    def test_known_value_for_damped_bell(self):
        """One-sided AD of |Phi+> has concurrence sqrt(eta)."""
        eta = 0.64
        assert concurrence(bell_pair_after_loss(eta)) == pytest.approx(np.sqrt(eta), abs=1e-9)

    def test_rejects_wrong_dim(self):
        with pytest.raises(QuantumStateError):
            concurrence(maximally_mixed(3))


class TestNegativity:
    def test_bell_state(self):
        assert negativity(density_matrix(bell_state())) == pytest.approx(0.5)

    def test_separable_zero(self):
        assert negativity(maximally_mixed(2)) == pytest.approx(0.0, abs=1e-12)

    def test_decreases_with_damping(self):
        assert negativity(bell_pair_after_loss(0.9)) > negativity(bell_pair_after_loss(0.2))
