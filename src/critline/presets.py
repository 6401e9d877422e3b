"""The two published parameter points, entered verbatim.

``kappa``: R = 1.28, degree-7 odd-basis Q, theta = (4/7, 1/2), giving the
headline bound kappa >= .4105.  ``kappa-star``: R = 1.12 with linear Q
(simple-zeros mode), giving kappa* >= .4058.

The printed ``kappa`` Q has Q(0) = 1.002; :func:`moments.evaluate` scales
it to Q(0) = 1, which the headline digits assume, and reports the
unnormalized kappa in its diagnostics.
"""

from __future__ import annotations

from .moments import ALL_ZEROS, SIMPLE_ZEROS, MollifierConfig
from .poly import make_p1, make_p2, make_q

THETA1 = 4.0 / 7.0
THETA2 = 0.5

# Q as (q_const, q_odd_coeffs): its coefficients at y^0 and y, y^3, ..., y = 1 - 2x
KAPPA_Q = (0.492, (0.604, -0.08, -0.06, 0.046))
KAPPA_P1 = (0.842706, 0.00845721, 0.093117, 0.118788, -0.0630687)
KAPPA_P2 = (0.0245412, -0.00635566, 0.00603128)
KAPPA_R = 1.28

# Q(x) = 1 - 1.03x rewritten on the (1 - 2x) basis
KAPPA_STAR_Q = (0.485, (0.515,))
KAPPA_STAR_P1 = (0.829473, 0.0104358, 0.082009, 0.177482, -0.0993997)
KAPPA_STAR_P2 = (0.0323061, -0.00553783, 0.00769594)
KAPPA_STAR_R = 1.12


def _preset(R: float, q, p1, p2, mode: str) -> MollifierConfig:
    return MollifierConfig(
        theta1=THETA1, theta2=THETA2, R=R,
        Q=make_q(*q), P1=make_p1(p1), P2=make_p2(p2), mode=mode,
    )


def kappa_preset() -> MollifierConfig:
    return _preset(KAPPA_R, KAPPA_Q, KAPPA_P1, KAPPA_P2, ALL_ZEROS)


def kappa_star_preset() -> MollifierConfig:
    return _preset(KAPPA_STAR_R, KAPPA_STAR_Q, KAPPA_STAR_P1, KAPPA_STAR_P2, SIMPLE_ZEROS)


PRESETS = {
    "kappa": kappa_preset,
    "kappa-star": kappa_star_preset,
}
