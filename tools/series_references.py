"""40-digit references of the weighted Gaussian sums S0, S1 and S2.

S_n = integral of y^n exp(-(y-a)^2/sigma^2)/(1 + tau y^2) dy, the sums
``ncphase.uncertainty._weighted_sums`` takes from the Faddeeva function or,
for |zeta| >= 10, from its asymptotic series.  Each point sits on a ring
|zeta| in RINGS at a phase set by alpha = a sqrt(tau): zeta =
(i - alpha)/beta with beta = sigma sqrt(tau).

Each sum is computed twice at 60 digits with mpmath, from the closed form
through erfc and by direct quadrature, and the two must agree to 45
digits.  The script prints the literal table that
``tests/test_series_references.py`` holds, then, per ring, the largest
relative error of ``_weighted_sums`` against it.

mpmath is not a dependency of ncphase; run, from the repository root:

    PYTHONPATH=src python tools/series_references.py
"""

import math

import mpmath

RINGS = (5.0, 9.99, 10.0, 10.01, 30.0)
ALPHAS = (0.0, -1.0, 1.0, -3.0, 5.0, -10.0)  # phases 90, 45, 135, 18, 169, 6 degrees
TAU = 0.0025


def points():
    """(ring, a, sigma) of every reference point, at tau = TAU."""
    root = math.sqrt(TAU)
    for ring in RINGS:
        for alpha in ALPHAS:
            yield ring, alpha / root, math.hypot(1.0, alpha) / (ring * root)


def closed_form(a, sigma, tau):
    a, sigma, tau = map(mpmath.mpf, (a, sigma, tau))
    root = mpmath.sqrt(tau)
    zeta = (1j / root - a) / sigma
    w = mpmath.exp(-zeta * zeta) * mpmath.erfc(-1j * zeta)
    s0 = mpmath.pi * w.real / root
    return s0, -mpmath.pi * w.imag / tau, (sigma * mpmath.sqrt(mpmath.pi) - s0) / tau


def quadrature(a, sigma, tau):
    a, sigma, tau = map(mpmath.mpf, (a, sigma, tau))
    cuts = [-mpmath.inf] + [a + k * sigma for k in (-12, -6, -3, 0, 3, 6, 12)] + [mpmath.inf]

    def weight(y):
        return mpmath.exp(-((y - a) / sigma) ** 2) / (1 + tau * y * y)

    return tuple(mpmath.quad(lambda y: y**n * weight(y), cuts) for n in range(3))


def main():
    mpmath.mp.dps = 60
    table = []
    for ring, a, sigma in points():
        exact = closed_form(a, sigma, TAU)
        for x, y in zip(exact, quadrature(a, sigma, TAU)):
            assert abs(x - y) <= mpmath.mpf(10) ** -45 * max(abs(x), 1), (ring, a, sigma, x, y)
        table.append((ring, a, sigma, exact))
    print("REFERENCES = [")
    for ring, a, sigma, sums in table:
        texts = ", ".join(f'"{mpmath.nstr(s, 40, min_fixed=1, max_fixed=0)}"' for s in sums)
        print(f"    ({ring!r}, {a!r}, {sigma!r}, ({texts})),")
    print("]")
    try:
        from ncphase.uncertainty import _weighted_sums
    except ImportError:
        return
    worst = {}
    for ring, a, sigma, sums in table:
        for got, want in zip(_weighted_sums(a, sigma, TAU), sums):
            error = abs(mpmath.mpf(got) - want) / abs(want) if want else abs(mpmath.mpf(got))
            worst[ring] = max(worst.get(ring, 0), error)
    for ring, error in worst.items():
        print(f"# ring {ring}: largest relative error {mpmath.nstr(error, 3)}")


if __name__ == "__main__":
    main()
