import math

import pytest

from clarke_kinematics.identities import run_identity_suite


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, True])
def test_suite_rejects_bad_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance must be positive and finite"):
        run_identity_suite(d=0.01, l=0.1, n_max=4, tol=tol)

