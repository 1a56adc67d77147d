"""Correctness checks for the benchmark's outputs.

Every check compares an output with something computed independently of it:
a closed form, an analytic series or quadrature, the lattice's exact
flat-strip solution, or a property the method must have. None compares with
a stored copy of an earlier run. Each check returns a list of problems, empty
when the output passes, so one run can report every failure at once.

Monte Carlo checks allow Z_MAX binomial standard errors per bin plus an
O(a) allowance for the jump or lattice step a, where the walk only
approximates the continuum law. With about 70 binned comparisons per run a
correct program fails one with probability ~4e-5.
"""

from __future__ import annotations

import math

import numpy as np

Z_MAX = 5.0
# the KS statistic of a correct sample exceeds its critical value with
# probability KS_ALPHA (two-sided Dvoretzky-Kiefer-Wolfowitz bound)
KS_ALPHA = 1e-6


def q_operator(Q: np.ndarray, has_source: bool) -> list[str]:
    """Q is symmetric, nonnegative and sub-stochastic (strictly, with a source)."""
    problems = []
    asym = float(np.max(np.abs(Q - Q.T)))
    if not asym < 1e-12:
        problems.append(f"Q asymmetric by {asym:.2e}")
    if not float(Q.min()) >= 0.0:
        problems.append(f"Q has a negative entry {float(Q.min()):.2e}")
    rows = Q.sum(axis=1)
    if not np.all(rows <= 1.0 + 1e-12):
        problems.append(f"Q row sum {float(rows.max()):.15f} exceeds 1")
    if has_source and not np.any(rows < 1.0 - 1e-9):
        problems.append("Q loses no mass to the source")
    return problems


def annulus_eigenvalues(mu: np.ndarray, exact: np.ndarray, alpha: np.ndarray, mesh: float, R: float) -> list[str]:
    """Lowest DtN eigenvalues against the annulus closed forms.

    The staircase error of a rasterized circle grows with the angular index
    alpha and shrinks with the mesh; the envelope mesh * (1 + alpha) bounds
    it at mesh 1/32 with a factor of about two to spare.
    """
    problems = []
    k = len(exact)
    rel = np.abs(mu[:k] / exact - 1.0)
    tol = mesh * (1.0 + alpha)
    for j in np.flatnonzero(~(rel < tol)):
        problems.append(
            f"DtN eigenvalue {j} = {mu[j]:.6g} vs closed form {exact[j]:.6g} "
            f"(rel {rel[j]:.3g} > {tol[j]:.3g})"
        )
    mu0_lnR = float(mu[0]) * math.log(R)
    if not abs(mu0_lnR - 1.0) < mesh:
        problems.append(f"mu0 ln R = {mu0_lnR:.6g}, not within {mesh:g} of 1")
    return problems


def annulus_impedance(rows: list[dict], mesh: float) -> list[str]:
    """Z_sp 2 pi / Lambda -> 1 on the annulus, and the two routes agree to 1e-8."""
    problems = []
    tol = 2.5 * mesh
    for row in rows:
        lam, z_sp = row["Lambda"], row["Z_sp"]
        dev = abs(z_sp * 2.0 * math.pi / lam - 1.0)
        if not dev < tol:
            problems.append(f"Z_sp 2pi/Lambda off by {dev:.3g} at Lambda={lam:.4g} (tol {tol:.3g})")
        gap = abs(z_sp - row["Z_sp_diff"])
        if not gap <= 1e-8 * abs(z_sp):
            problems.append(f"impedance routes disagree by {gap / abs(z_sp):.2e} at Lambda={lam:.4g}")
    return problems


def resolvent(M: np.ndarray, weight: np.ndarray, lam: float, T: np.ndarray) -> list[str]:
    """The spreading operator inverts I + Lambda M_w to solver precision."""
    n = M.shape[0]
    resid = float(np.max(np.abs((np.eye(n) + lam * (M / weight[:, None])) @ T - np.eye(n))))
    if not resid < 1e-9:
        return [f"resolvent residual {resid:.2e} at Lambda={lam:.4g}"]
    return []


def binned_counts(counts, total: int, prob, allowance: float, what: str) -> list[str]:
    """Binomial agreement of per-bin counts with exact bin probabilities.

    allowance is the relative O(a) discretization error tolerated on top of
    Z_MAX standard errors.
    """
    counts = np.asarray(counts, dtype=float)
    prob = np.asarray(prob, dtype=float)
    expected = total * prob
    sigma = np.sqrt(total * prob * (1.0 - prob))
    excess = np.abs(counts - expected) - allowance * expected
    z = excess / sigma
    bad = np.flatnonzero(~(z < Z_MAX))
    return [
        f"{what} bin {j}: {int(counts[j])} counted, {expected[j]:.1f} expected "
        f"({z[j]:.1f} sigma beyond the {allowance:.3g} allowance)"
        for j in bad
    ]


def partition(hist) -> list[str]:
    """Working counts + source + censored account for every walker."""
    accounted = int(hist.counts.sum()) + hist.source_absorbed + hist.censored
    if accounted != hist.total:
        return [f"counts + source + censored = {accounted} != total {hist.total}"]
    return []


def geometric_reflections(refl_counts, eps: float, what: str) -> list[str]:
    """Reflection numbers of absorbed walkers follow (1 - eps) eps^k exactly.

    The last slot holds the overflow eps^(K+1). Every contact flips the same
    independent coin, so no discretization allowance applies.
    """
    refl_counts = np.asarray(refl_counts)
    K = len(refl_counts) - 2
    k = np.arange(K + 1)
    prob = np.append((1.0 - eps) * eps**k, eps ** (K + 1))
    return binned_counts(refl_counts, int(refl_counts.sum()), prob, 0.0, what)


def stopping_time(sample: np.ndarray, cdf: np.ndarray, a: float, Lambda: float) -> list[str]:
    """KS distance of the exact lattice sampler from the continuum law.

    sample is sorted and cdf holds the exact CDF at each point. The lattice
    walk is absorbed at its first touch with probability 1 - exp(-a/Lambda),
    an atom at t = 0 the continuum law lacks; that atom is allowed on top of
    the DKW critical value.
    """
    n = len(sample)
    i = np.arange(n)
    ks = float(max(np.max((i + 1) / n - cdf), np.max(cdf - i / n)))
    atom = 1.0 - math.exp(-a / Lambda)
    crit = math.sqrt(math.log(2.0 / KS_ALPHA) / (2.0 * n)) + atom
    if not ks < crit:
        return [f"stopping-time KS distance {ks:.4g} >= {crit:.4g} (n={n})"]
    return []


def fraction(hits: int, total: int, p: float, allowance: float, what: str) -> list[str]:
    """A single binomial share against its exact value."""
    return binned_counts([hits], total, [p], allowance / p, what)


def flat_strip(report, H: float, L: float, mesh: float, D: float = 1.0) -> list[str]:
    """The lattice's exact fluxes across a flat strip of length L under a source at H.

    With mesh a the lattice strip has D L / (H + Lambda + a) through the
    semi-permeable wall and D L / (H + a) through the absorbing chords.
    """
    problems = []
    lam = report.Lambda
    for label, value, exact in (
        ("original_flux", report.original_flux, D * L / (H + lam + mesh)),
        ("coarse_flux", report.coarse_flux, D * L / (H + mesh)),
    ):
        rel = abs(value / exact - 1.0)
        if not rel < 1e-10:
            problems.append(f"flat {label} {value:.15g} vs exact {exact:.15g} (rel {rel:.2e}) at Lambda={lam:.4g}")
    return problems


def decreasing(lams, fluxes, what: str) -> list[str]:
    """Flux across the semi-permeable curve falls strictly as Lambda grows."""
    order = np.argsort(lams)
    f = np.asarray(fluxes, dtype=float)[order]
    if not np.all(np.diff(f) < 0):
        return [f"{what}: original_flux not strictly decreasing in Lambda: {f.tolist()}"]
    return []
