"""Separating test functions and expectations of their exponentials.

A test function is built from a finite multiset of index triples (s, k, n):

    g(x, alpha) = sum_j v_{s_j}(x) * w_{k_j, n_j}(alpha),
    theta(x, alpha) = exp(-g(x, alpha)) - 1  in (-1, 0].

The associated configuration functional

    F_theta(config) = prod_particles (1 + theta(x, alpha)) = exp(-sum g)

lies in (0, 1], is multiplicative over disjoint unions, and the family over
all finite triple multisets separates laws: Poisson expectations are
exp(int theta d rho) (generator.PoissonLaw.expect_F) and expectations of
independent superpositions multiply.

The star product theta * theta' = theta + theta' + theta theta' corresponds to
concatenating term lists, since 1 + (theta * theta') = (1+theta)(1+theta').
"""

from __future__ import annotations

import numpy as np

from .config_space import plateau_table
from .mark_space import sigma, u_basis_derivative

__all__ = [
    "Theta",
    "star_product",
    "F_theta",
]


class Theta:
    """Test function from a finite multiset of (s, k, n) index triples.

    Duplicate triples are allowed and count with multiplicity.  g is bounded
    by the term count j_count, decreases in age along each term (w peaks at
    age zero), and g(x, 0) recovers sum_j v_{s_j}(x) exactly.
    """

    __slots__ = ("terms", "habitat", "_plateaus", "_ns", "_breaks", "_u_ns", "_rungs")

    def __init__(self, terms, habitat):
        terms = tuple((int(s), int(k), int(n)) for (s, k, n) in terms)
        if not terms:
            raise ValueError("a test function needs at least one index triple")
        s, k, n = np.array(terms).T
        if min(s.min(), k.min(), n.min()) < 1:
            raise ValueError("triples must have s, k, n >= 1")
        plateaus = plateau_table(tuple(s.tolist()), habitat)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "habitat", habitat)
        object.__setattr__(self, "_plateaus", plateaus)
        object.__setattr__(self, "_ns", n)
        breaks = ()
        if habitat.dim == 1:
            c, q = plateaus.centers[:, 0], plateaus.radii
            breaks = tuple(np.unique(np.concatenate([c - q, c + q, c - 2.0 * q, c + 2.0 * q])).tolist())
        object.__setattr__(self, "_breaks", breaks)
        # per term: sigma_k and the index of its n among the distinct n of the
        # terms with sigma > 0 (None at sigma = 0, where w = exp(-0 u) = 1)
        sigmas = sigma(k)
        u_ns = np.unique(n[sigmas > 0])
        rungs = tuple(
            (float(sig), int(np.searchsorted(u_ns, m)) if sig > 0 else None)
            for sig, m in zip(sigmas, n)
        )
        object.__setattr__(self, "_u_ns", tuple(u_ns.astype(float).tolist()))
        object.__setattr__(self, "_rungs", rungs)

    def __setattr__(self, *a):
        raise AttributeError("Theta is immutable")

    @property
    def j_count(self):
        """Number of terms; the uniform bound on g."""
        return len(self.terms)

    @property
    def x_breakpoints(self):
        """Kink locations of x -> g(x, .) for 1-d habitats (plateau edges)."""
        return self._breaks

    @property
    def age_scale(self):
        """Age scale of alpha -> g(x, alpha): min_j n_j^(-1/3).

        u_n(alpha) = n^(-2/3) U(n^(1/3) alpha) with U(b) = b^2/(1 + b^3),
        whose complex poles lie at distance sqrt(3)/2 from the real axis, so
        u_n varies on ages of order n^(-1/3); with every sigma_k below 1,
        exp(-sigma u_n) varies on no shorter scale.  The age rule sizes its
        panels by this (see habitat.age_panel_width).
        """
        return float((self._ns ** (-1.0 / 3.0)).min())

    def _rung_sum(self, x, alpha, slope):
        """[g], or [g, g'] with g' = d/dalpha g when slope, at x (..., dim), alpha (...).

        Broadcasts x against alpha, from one Plateaus call.  Adds v_j w_j to g and
        v_j ((-sigma_j u'_{n_j}) w_j) to g', in term order with the bits of
        exp(-sigma_j u_{n_j}) and u_basis_derivative; u_n (and u'_n) are computed
        once per distinct n, and a term with sigma = 0 adds v_j to g alone.
        """
        x = np.asarray(x, dtype=float)
        alpha = np.asarray(alpha, dtype=float)
        shape = np.broadcast_shapes(x.shape[:-1], alpha.shape)
        v = self._plateaus(x)
        u, du = [], []
        if self._u_ns:
            a2, a3 = alpha**2, alpha**3
            for n in self._u_ns:
                # u_n = alpha^2 / (1 + n alpha^3), worked in one buffer
                den = np.multiply(n, a3, out=np.empty(alpha.shape))
                den += 1.0
                u.append(np.divide(a2, den, out=den))
                if slope:
                    du.append(u_basis_derivative(n, alpha))
        sums = [np.zeros(shape) for _ in range(1 + slope)]
        for vj, (sigma, i) in zip(v, self._rungs):
            if i is None:
                sums[0] += vj
                continue
            w = np.multiply(-sigma, u[i], out=np.empty(alpha.shape))
            np.exp(w, out=w)
            factors = [w, np.multiply(w, -sigma * du[i], out=np.empty(alpha.shape))] if slope else [w]
            for total, f in zip(sums, factors):
                total += np.multiply(f, vj, out=f) if f.shape == shape else f * vj
        return [total if total.ndim else float(total) for total in sums]

    def g(self, x, alpha):
        """g(x, alpha); broadcasts x (..., dim) against alpha (...)."""
        return self._rung_sum(x, alpha, False)[0]

    def g_age_derivative(self, x, alpha):
        """d/dalpha g = -sum_j v_j(x) sigma_j u'_{n_j}(alpha) w_j(alpha)."""
        return self._rung_sum(x, alpha, True)[1]

    def g_and_derivative(self, x, alpha):
        """(g, d/dalpha g) from one rung pass, with the bits of each alone."""
        return tuple(self._rung_sum(x, alpha, True))

    def theta(self, x, alpha):
        """theta = exp(-g) - 1 in (-1, 0]."""
        return np.expm1(-self.g(x, alpha))

    __call__ = theta


def star_product(theta_a, theta_b):
    """theta_a + theta_b + theta_a theta_b, realized by concatenating terms.

    Both factors must share the habitat.
    """
    if theta_a.habitat is not theta_b.habitat:
        raise ValueError("star product requires a common habitat")
    return Theta(theta_a.terms + theta_b.terms, theta_a.habitat)


def F_theta(theta, config):
    """prod (1 + theta(x, alpha)) = exp(-sum g) in (0, 1]."""
    return float(np.exp(-np.sum(theta.g(config.positions, config.ages))))
