import numpy as np
import pytest

from conftest import effective_rank
from overfit_lab.errors import (
    InvalidParameterError,
    InvariantViolationError,
    SpectrumTruncationError,
)
from overfit_lab.spectra import (
    make_spectrum,
    max_exponential_length,
    theoretical_condition_ratio,
)


class TestMakeSpectrum:
    def test_polynomial_values(self):
        s = make_spectrum("polynomial", 1.0, 4)
        np.testing.assert_allclose(
            s.eigenvalues, [1.0, 0.25, 1.0 / 9.0, 0.0625], rtol=1e-15
        )

    def test_exponential_values(self):
        s = make_spectrum("exponential", np.log(2.0), 3)
        np.testing.assert_allclose(s.eigenvalues, [0.5, 0.25, 0.125], rtol=1e-14)

    def test_linear_polylog_values(self):
        s = make_spectrum("linear_polylog", 2.0, 3)
        k = np.arange(1.0, 4.0)
        np.testing.assert_allclose(
            s.eigenvalues, 1.0 / ((k + 1) * np.log(k + 1) ** 2), rtol=1e-15
        )

    def test_custom_ordering_violation(self):
        with pytest.raises(InvariantViolationError):
            make_spectrum("custom", eigenvalues=[3.0, 1.0, 2.0])

    def test_custom_valid(self):
        s = make_spectrum("custom", eigenvalues=[3.0, 2.0, 2.0, 0.5])
        assert s.kind == "custom"
        assert len(s) == 4

    @pytest.mark.parametrize("bad_a", [0.0, -1.0])
    def test_nonpositive_decay_rejected(self, bad_a):
        with pytest.raises(InvalidParameterError):
            make_spectrum("polynomial", bad_a, 10)

    def test_zero_length_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_spectrum("polynomial", 1.0, 0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidParameterError):
            make_spectrum("geometric", 1.0, 4)

    def test_nonpositive_custom_rejected(self):
        with pytest.raises(InvariantViolationError):
            make_spectrum("custom", eigenvalues=[1.0, 0.0])

    def test_exponential_underflow_cap(self):
        cap = max_exponential_length(1.0)
        assert cap == 690
        s = make_spectrum("exponential", 1.0, cap)
        assert s.eigenvalues[-1] >= 1e-300
        with pytest.raises(SpectrumTruncationError):
            make_spectrum("exponential", 1.0, cap + 1)

    def test_uncapped_decay_rate_rejected(self):
        # -log(1e-300) / 5e-324 overflows to inf, which no length matches
        with pytest.raises(InvalidParameterError, match="a=5e-324"):
            max_exponential_length(5e-324)

    @pytest.mark.parametrize("kind,a", [
        ("polynomial", 0.5), ("polynomial", 2.0),
        ("exponential", 0.3), ("exponential", 1.0),
        ("linear_polylog", 1.0), ("linear_polylog", 3.0),
    ])
    def test_positive_and_non_increasing(self, kind, a):
        s = make_spectrum(kind, a, 200)
        lam = s.eigenvalues
        assert lam.shape == (200,)
        assert np.all(lam > 0)
        assert np.all(np.diff(lam) <= 0)

    def test_immutable(self):
        s = make_spectrum("polynomial", 1.0, 4)
        with pytest.raises(ValueError):
            s.eigenvalues[0] = 2.0

    def test_custom_leaves_the_callers_array_writable(self):
        lam = np.array([3.0, 2.0, 0.5])
        s = make_spectrum("custom", eigenvalues=lam)
        assert lam.flags.writeable
        lam[0] = 9.0  # the spectrum holds its own frozen copy
        assert s.eigenvalues[0] == 3.0
        assert not s.eigenvalues.flags.writeable


class TestEffectiveRank:
    def test_geometric_tail(self):
        # sum_{k>l} 2^-k = 2^-l and lambda_{l+1} = 2^-(l+1), so rho = 2/N
        s = make_spectrum("exponential", np.log(2.0), 100)
        assert effective_rank(s, 30, 10) == pytest.approx(0.2, rel=1e-9)

    def test_last_level_is_one_over_n(self):
        for s in (make_spectrum("polynomial", 1.0, 7),
                  make_spectrum("exponential", 0.5, 9)):
            assert effective_rank(s, len(s) - 1, 4) == pytest.approx(0.25, abs=0)

    def test_polynomial_theta_one_regime(self):
        # independent oracle: plain-python summation of the tail
        s = make_spectrum("polynomial", 1.0, 1000)
        n, l = 100, 100
        tail = sum((k + 1) ** -2.0 for k in range(l, 1000))
        oracle = tail / (n * (l + 1) ** -2.0)
        got = effective_rank(s, l, n)
        assert got == pytest.approx(oracle, rel=1e-12)
        assert abs(got - 1.0) < 0.1

    def test_level_out_of_range(self):
        s = make_spectrum("polynomial", 1.0, 10)
        with pytest.raises(IndexError):
            effective_rank(s, 10, 5)
        with pytest.raises(IndexError):
            effective_rank(s, -1, 5)

    def test_bad_sample_size(self):
        s = make_spectrum("polynomial", 1.0, 10)
        with pytest.raises(InvalidParameterError):
            effective_rank(s, 2, 0)

    def test_monotone_in_n(self):
        s = make_spectrum("polynomial", 1.5, 64)
        vals = [effective_rank(s, 5, n) for n in (1, 2, 4, 8, 16)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_exponential_band_independent_of_level(self):
        # N * rho_l should sit in one band for every l with a long tail
        s = make_spectrum("exponential", 1.0, 400)
        n = 10
        vals = [n * effective_rank(s, l, n) for l in (0, 50, 150, 300)]
        assert max(vals) / min(vals) < 1.01

    def test_polynomial_band_independent_of_n(self):
        s = make_spectrum("polynomial", 1.0, 20000)
        vals = [effective_rank(s, n // 4, n) for n in (100, 200, 400, 800)]
        assert max(vals) / min(vals) < 1.5


class TestTheoreticalConditionRatio:
    def test_polynomial_example(self):
        s = make_spectrum("polynomial", 1.0, 20)
        assert theoretical_condition_ratio(s, 10, "poly") == pytest.approx(100.0)

    def test_exponential_example(self):
        s = make_spectrum("exponential", np.log(2.0), 8)
        assert theoretical_condition_ratio(s, 4, "exp") == pytest.approx(32.0)

    def test_degenerate_n(self):
        s = make_spectrum("polynomial", 1.0, 5)
        assert theoretical_condition_ratio(s, 1, "poly") == 1.0
        assert theoretical_condition_ratio(s, 1, "exp") == 1.0

    def test_n_beyond_spectrum(self):
        s = make_spectrum("polynomial", 1.0, 5)
        with pytest.raises(IndexError):
            theoretical_condition_ratio(s, 6, "poly")

    def test_unknown_regime(self):
        s = make_spectrum("polynomial", 1.0, 5)
        with pytest.raises(InvalidParameterError):
            theoretical_condition_ratio(s, 3, "log")
