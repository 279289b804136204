"""Independent 30-digit reference values of the support-cap height t0.

For a point charge q at height R > 1 on the polar axis of S^d and the Riesz
kernel |x-y|^(-s) with d-2 < s < d, the extremal support cap {u <= t0} is the
root of

    Delta(t) = Phi_s(t) - q (R+1)^(d-s) / (R^2 - 2 R t + 1)^(d/2),
    Phi_s(t) = W_s (1 + q ||eps_t||) / ||nu_t||,

    W_s      = Gamma(d) Gamma((d-s)/2) / (2^s Gamma(d/2) Gamma(d-s/2)),
    ||nu_t|| = 1 - I((1-t)/2; d - s/2, s/2),
    ||eps_t||= C (R+1)^(d-s) / W_s  int_{-1}^t (1+u)^(s/2-1) (1-u)^(d-s/2-1)
                                     (R^2 - 2 R u + 1)^(-d/2) du,
    C        = 2^(1-d) Gamma(d) / (Gamma(d-s/2) Gamma(s/2)),

whenever the whole-sphere margin

    W_s/q - [(R+1)^(d-s)/(R-1)^d - (R+1)^(-s) 2F1(s/2, d/2; d; 4R/(R+1)^2)]

is negative.  Everything here is evaluated with mpmath at 30 digits
(``mp.betainc``, ``mp.quad``, ``mp.hyp2f1``); nothing imports ``rieszcap``.

Run ``python3 bench/t0_reference.py`` to rewrite ``bench/t0_reference.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp

mp.mp.dps = 30

# (d, s, q, R): generic point charges with interior roots, spread over
# d = 2..5, s across (d-2, d), weak and strong charges, near and far.
CASES = (
    (2, 1.0, 1.0, 1.3),
    (2, 1.6, 2.0, 1.8),
    (2, 0.75, 0.4, 1.15),
    (3, 1.8, 0.5, 1.2),
    (3, 2.5, 3.0, 2.0),
    (4, 3.0, 1.0, 1.5),
    (4, 2.7, 5.0, 2.5),
    (5, 3.9, 0.7, 1.25),
)


def _terms(d, s, q, R):
    d, s, q, R = (mp.mpf(x) for x in (d, s, q, R))
    W = mp.gamma(d) * mp.gamma((d - s) / 2) / (
        2 ** s * mp.gamma(d / 2) * mp.gamma(d - s / 2))
    C = 2 ** (1 - d) * mp.gamma(d) / (mp.gamma(d - s / 2) * mp.gamma(s / 2))

    def nu_norm(t):
        return 1 - mp.betainc(d - s / 2, s / 2, 0, (1 - t) / 2, regularized=True)

    def eps_norm(t):
        f = lambda u: ((1 + u) ** (s / 2 - 1) * (1 - u) ** (d - s / 2 - 1)
                       * (R * R - 2 * R * u + 1) ** (-d / 2))
        return C * (R + 1) ** (d - s) / W * mp.quad(f, [-1, t])

    def delta(t):
        phi = W * (1 + q * eps_norm(t)) / nu_norm(t)
        return phi - q * (R + 1) ** (d - s) / (R * R - 2 * R * t + 1) ** (d / 2)

    U = (R + 1) ** (-s) * mp.hyp2f1(s / 2, d / 2, d, 4 * R / (R + 1) ** 2)
    margin = W / q - ((R + 1) ** (d - s) / (R - 1) ** d - U)
    return delta, margin


def reference_t0(d, s, q, R):
    """t0 to ~25 digits by a grid bracket and a bracketing root solve."""
    delta, margin = _terms(d, s, q, R)
    if margin >= 0:
        raise ValueError(f"case {(d, s, q, R)} has full-sphere support")
    grid = [mp.mpf(-1) + mp.mpf(2) * k / 64 for k in range(1, 65)]
    lo = grid[0]
    for hi in grid[1:]:
        if delta(hi) <= 0:
            break
        lo = hi
    else:
        raise ValueError(f"no sign change of Delta for {(d, s, q, R)}")
    return mp.findroot(delta, (lo, hi), solver="anderson", tol=mp.mpf(10) ** -50)


def main() -> None:
    rows = []
    for d, s, q, R in CASES:
        t0 = reference_t0(d, s, q, R)
        rows.append({"d": d, "s": s, "q": q, "R": R, "t0": mp.nstr(t0, 25)})
        print(rows[-1], flush=True)
    out = Path(__file__).with_name("t0_reference.json")
    out.write_text(json.dumps({"digits": 30, "cases": rows}, indent=1) + "\n")


if __name__ == "__main__":
    main()
