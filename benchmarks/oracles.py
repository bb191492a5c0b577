"""Answers the benchmark predicts without asking haarsys how it got them.

Every oracle works from the seeded inputs as plain dicts and builds tokens by
the documented naming conventions (``pair:u,v``, ``blowup:z|g|w``):

* transfer: the closed form lambda_H^{r(h)}(h) = sum over z with
  sigma(z) = s(h) of mu_G(rho(z)) * phi(z) * beta(z);
* convolution on a pair groupoid: the matrix product
  (f*h)(u, w) = sum over v of f(u, v) * h(v, w) * mu(v);
* blow-up Haar: the weight of (z, g, w) is mu(s(g)) * beta(w);
* rejected CLI inputs: the exit code and the violations the planted fault
  must produce.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction


def pair(u: str, v: str) -> str:
    return f"pair:{u},{v}"


def blowup(z: str, g: str, w: str) -> str:
    return f"blowup:{z}|{g}|{w}"


def transfer_closed_form(points, mu, phi, beta, h_arrows) -> dict[tuple[str, str], Fraction]:
    """Expected transferred weights keyed by (range unit, arrow) of H.

    ``points`` lists each carrier point as (z, rho label, sigma label);
    ``mu`` is keyed by rho label, ``phi`` and ``beta`` by point (absent
    means 0 for ``phi``), and ``h_arrows`` lists (arrow, range unit, sigma
    label of its source).
    """
    orbit_sum: dict[str, Fraction] = {}
    for z, rho, sigma in points:
        orbit_sum[sigma] = orbit_sum.get(sigma, Fraction(0)) + mu[rho] * phi.get(z, 0) * beta[z]
    return {(unit, arrow): orbit_sum[src] for arrow, unit, src in h_arrows}


def pair_product(points, f, h, mu) -> dict[tuple[str, str], Fraction]:
    """Matrix product of f and h on pair(points), weighted by mu; zeros dropped.

    ``f``, ``h`` and the result are keyed by (u, v) point pairs.
    """
    out: dict[tuple[str, str], Fraction] = {}
    for u in points:
        row = [f[(u, v)] * mu[v] for v in points]
        for w in points:
            value = sum((a * h[(v, w)] for a, v in zip(row, points)), Fraction(0))
            if value:
                out[(u, w)] = value
    return out


def flat_weights(system) -> dict[tuple[str, str], Fraction]:
    """A haarsys FiberSystem as {(base point, point): weight}."""
    return {(u, y): w for u, m in system.measures.items() for y, w in m.weights.items()}


def document_weights(doc: dict) -> dict[tuple[str, str], Fraction]:
    """A serialized system document as {(base point, point): weight}."""
    return {(u, y): Fraction(w) for u, m in doc["measures"].items() for y, w in m.items()}


def mismatch(expected: dict, got: dict) -> str | None:
    """None when the two maps agree, otherwise the first key that differs."""
    if expected == got:
        return None
    for key in sorted(set(expected) | set(got)):
        if expected.get(key) != got.get(key):
            return f"at {key}: expected {expected.get(key)}, got {got.get(key)}"
    return "maps differ"


def invariance_violations(points, weight) -> int:
    """Left-invariance violations check_haar must report for a family on pair(points).

    ``weight[(a, c)]`` is the weight of arrow (a, c) in the fiber at a.  The
    arrow x = (a, b) moves z = (a, c) to (b, c), so a violation is a triple
    (a, b, c) with weight(a, c) != weight(b, c).
    """
    n = len(points)
    total = 0
    for c in points:
        counts = Counter(weight[(a, c)] for a in points)
        total += n * n - sum(k * k for k in counts.values())
    return total


def self_check(transfer_case, convolve_case) -> list[str]:
    """Plant one wrong weight in each computed answer; the oracle must flag both.

    Each case is (expected, got) with the true computed answer, which must
    match first.  Returns the problems found; empty means the oracles work.
    """
    problems = []
    for label, (expected, got) in (("transfer", transfer_case), ("convolve", convolve_case)):
        if mismatch(expected, got) is not None:
            problems.append(f"{label}: oracle rejects the true answer")
            continue
        key = sorted(got)[0]
        planted = dict(got)
        planted[key] = planted[key] + 1
        if mismatch(expected, planted) is None:
            problems.append(f"{label}: oracle missed a planted wrong weight at {key}")
    return problems
