import math

import pytest

from torusasym import identities


@pytest.mark.parametrize("bound", [1, 5, 6, 15, 35, 105, 199])
def test_knot_enumerator_lists_every_knot_once_in_order(bound):
    # ascending a, then b: the order fixes the draws of the verify suite
    want = [
        (a, b)
        for a in range(2, bound + 1)
        for b in range(3, bound + 1, 2)
        if a * b <= bound and math.gcd(a, b) == 1
    ]
    assert [(k.a, k.b) for k in identities.knots_up_to(bound)] == want
