"""Each registered check against a fault it must catch.

A check that passes on working code says something only if it fails on
broken code.  ``FAULTS`` maps a check id to a monkeypatch, the name it
replaces and a perturbation of the original, and to the detail the check
must then report; one test runs the check clean, then with its fault.
Each fault breaks one piece of what the check claims, not the check.
"""

from dataclasses import replace
from fractions import Fraction as Q

import pytest

from embtrees import campaign, marker, paths
from embtrees.series import Series


def scaled_h2(q):
    """complete_homogeneous with h_2 scaled by q."""
    def perturb(complete_homogeneous):
        def faulty(small, f_max):
            h = complete_homogeneous(small, f_max)
            if f_max >= 2:
                h[2] = h[2] * q
            return h
        return faulty
    return perturb


def bumped_cofactor(hensel_factor_pair):
    """The factor pair with z^3 added to the cofactor's constant coefficient."""
    def faulty(f, c):
        a, b = hensel_factor_pair(f, c)
        return a, [b[0] + Series.z(b[0].order) ** 3] + b[1:]
    return faulty


def dropped_top(mul_ints):
    """The integer product with its highest kept coefficient lost."""
    def faulty(a, b, n):
        return mul_ints(a, b, n)[:n - 1] + [0]
    return faulty


def endpoint_raised(meander_gf):
    """Meanders whose marked endpoints sit one level too high."""
    def faulty(*args, **kwargs):
        gf = meander_gf(*args, **kwargs)
        return replace(gf, marked=gf.marked.shift_marker(1))
    return faulty


# id -> (check id, module, name, perturbation, detail)
FAULTS = {
    "small-factor/cofactor": ("kernel/small-factor", campaign, "hensel_factor_pair",
                              bumped_cofactor, "-1:1,1:1: A*B differs from F at X^0"),
    "small-factor/h2": ("kernel/small-factor", campaign, "complete_homogeneous",
                        scaled_h2(Q(1000001, 1000000)),
                        "-1:1,1:1: h/e identity fails at z^2 t^2"),
    "marker-convolution": ("exact-arith/marker-convolution", marker, "_mul_ints",
                           dropped_top, "slice -2 mismatch on trial 0"),
    "meander-closed-form": ("paths/meander-closed-form", paths, "complete_homogeneous",
                            scaled_h2(Q(1000001, 1000000)),
                            "-1:1,1:1: first mismatch (2, 2)"),
    "excursions": ("paths/excursions", paths, "meander_gf", endpoint_raised,
                   "dyck excursion coefficient 0"),
    "monotonicity": ("paths/monotonicity", paths, "complete_homogeneous",
                     scaled_h2(Q(999999, 1000000)), "level 2 coefficient 2 below free count"),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_check_fails_under_its_fault(fault, monkeypatch):
    check_id, module, name, perturb, detail = FAULTS[fault]
    assert campaign.run_check(check_id).status == "pass"
    monkeypatch.setattr(module, name, perturb(getattr(module, name)))
    result = campaign.run_check(check_id)
    assert (result.status, result.detail) == ("fail", detail)
