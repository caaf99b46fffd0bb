import numpy as np
import pytest

from casimir import kernels


def test_fresnel_kernel_limits():
    Q = np.array([1e6])
    rs, rp = kernels.fresnel_rs_rp_iw(1.0, 1e6, Q)
    assert rs[0] == 0.0 and rp[0] == 0.0  # vacuum reflects nothing
    rs, rp = kernels.fresnel_rs_rp_iw(1e12, 1e6, Q)
    assert rs[0] == pytest.approx(-1.0, abs=1e-5)  # mirror limit, both pols
    assert rp[0] == pytest.approx(-1.0, abs=1e-5)
