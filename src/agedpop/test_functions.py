"""Separating test functions and expectations of their exponentials.

A test function is built from a finite multiset of index triples (s, k, n):

    g(x, alpha) = sum_j v_{s_j}(x) * w_{k_j, n_j}(alpha),
    theta(x, alpha) = exp(-g(x, alpha)) - 1  in (-1, 0].

The associated configuration functional

    F_theta(config) = prod_particles (1 + theta(x, alpha)) = exp(-sum g)

lies in (0, 1], is multiplicative over disjoint unions, and the family over
all finite triple multisets separates laws: Poisson expectations are
exp(int theta d rho) and expectations of independent superpositions multiply.

The star product theta * theta' = theta + theta' + theta theta' corresponds to
concatenating term lists, since 1 + (theta * theta') = (1+theta)(1+theta').
"""

from __future__ import annotations

import json

import numpy as np

from .config_space import v_enumerate
from .mark_space import DEFAULT_LADDER, u_basis, u_basis_derivative

__all__ = [
    "Theta",
    "star_product",
    "F_theta",
    "log_F_theta",
    "poisson_expectation",
    "convolution_expectation",
    "theta_to_json",
    "theta_from_json",
]


class Theta:
    """Test function from a finite multiset of (s, k, n) index triples.

    Duplicate triples are allowed and count with multiplicity.  g is bounded
    by the term count j_count, decreases in age along each term (w peaks at
    age zero), and g(x, 0) recovers sum_j v_{s_j}(x) exactly.
    """

    __slots__ = ("terms", "habitat", "ladder", "_bases", "_sigmas", "_ns", "_breaks")

    def __init__(self, terms, habitat, ladder=DEFAULT_LADDER):
        terms = tuple((int(s), int(k), int(n)) for (s, k, n) in terms)
        if not terms:
            raise ValueError("a test function needs at least one index triple")
        for s, k, n in terms:
            if s < 1 or k < 1 or n < 1:
                raise ValueError("triples must have s, k, n >= 1")
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "habitat", habitat)
        object.__setattr__(self, "ladder", ladder)
        object.__setattr__(self, "_bases", tuple(v_enumerate(s, habitat) for s, _, _ in terms))
        object.__setattr__(
            self, "_sigmas", np.array([ladder.value(k) for _, k, _ in terms], dtype=float)
        )
        object.__setattr__(self, "_ns", np.array([n for _, _, n in terms], dtype=float))
        breaks = set()
        if habitat.dim == 1:
            for b in self._bases:
                c = b.center[0]
                for r in (b.inner_radius, b.support_radius):
                    breaks.update((c - r, c + r))
        object.__setattr__(self, "_breaks", tuple(sorted(breaks)))

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
        """Age scale of alpha -> g(x, alpha): min_j min(n_j^(-1/3), sigma_j^(-1/2), 1).

        u_n(alpha) = n^(-2/3) U(n^(1/3) alpha) with U(b) = b^2/(1 + b^3),
        whose complex poles lie at distance sqrt(3)/2 from the real axis, so
        u_n varies on ages of order n^(-1/3); exp(-sigma u_n) moves by order
        one over ages of order sigma^(-1/2) once sigma exceeds 1.  The age
        rule sizes its panels by this (see habitat.age_panel_width).
        """
        scales = np.minimum(self._ns ** (-1.0 / 3.0), np.maximum(self._sigmas, 1.0) ** -0.5)
        return float(scales.min())

    def g(self, x, alpha):
        """g(x, alpha); broadcasts x (..., dim) against alpha (...)."""
        x = np.asarray(x, dtype=float)
        alpha = np.asarray(alpha, dtype=float)
        shape = np.broadcast_shapes(x.shape[:-1], alpha.shape)
        out = np.zeros(shape)
        if not self.terms:
            return out if out.ndim else float(out)
        u = u_basis(self._ns.reshape((-1,) + (1,) * len(shape)), alpha)
        w = np.exp(-self._sigmas.reshape((-1,) + (1,) * len(shape)) * u)
        for j, basis in enumerate(self._bases):
            out = out + basis(x) * w[j]
        return out if out.ndim else float(out)

    def g_age_derivative(self, x, alpha):
        """d/dalpha g = -sum_j v_j(x) sigma_j u'_{n_j}(alpha) w_j(alpha)."""
        x = np.asarray(x, dtype=float)
        alpha = np.asarray(alpha, dtype=float)
        shape = np.broadcast_shapes(x.shape[:-1], alpha.shape)
        out = np.zeros(shape)
        if not self.terms:
            return out if out.ndim else float(out)
        ns = self._ns.reshape((-1,) + (1,) * len(shape))
        sig = self._sigmas.reshape((-1,) + (1,) * len(shape))
        u = u_basis(ns, alpha)
        du = u_basis_derivative(ns, alpha)
        wprime = -sig * du * np.exp(-sig * u)
        for j, basis in enumerate(self._bases):
            out = out + basis(x) * wprime[j]
        return out if out.ndim else float(out)

    def theta(self, x, alpha):
        """theta = exp(-g) - 1 in (-1, 0]."""
        return np.expm1(-self.g(x, alpha))

    __call__ = theta

    def star(self, other):
        return star_product(self, other)


def star_product(theta_a, theta_b):
    """theta_a + theta_b + theta_a theta_b, realized by concatenating terms.

    Both factors must share the habitat and ladder.
    """
    if theta_a.habitat is not theta_b.habitat:
        raise ValueError("star product requires a common habitat")
    if theta_a.ladder != theta_b.ladder:
        raise ValueError("star product requires a common sigma ladder")
    return Theta(theta_a.terms + theta_b.terms, theta_a.habitat, theta_a.ladder)


def log_F_theta(theta, config):
    """-sum over particles of g(x, alpha); 0 on the empty configuration."""
    if not len(config):
        return 0.0
    return -float(np.sum(theta.g(config.positions, config.ages)))


def F_theta(theta, config):
    """prod (1 + theta(x, alpha)) = exp(-sum g) in (0, 1]."""
    return float(np.exp(log_F_theta(theta, config)))


def poisson_expectation(theta, intensity):
    """E F_theta under the Poisson law with the given intensity measure.

    Equals exp(int theta d rho); the integral runs over the intensity's age
    window, whose truncation error bound is reported by the intensity itself.
    """
    return float(np.exp(intensity.theta_integral(theta)))


def convolution_expectation(expectations):
    """E F_theta under an independent superposition: the plain product."""
    out = 1.0
    for e in expectations:
        out *= float(e)
    return out


def theta_to_json(theta):
    """JSON text: list of [s, k, n] triples."""
    return json.dumps([list(t) for t in theta.terms])


def theta_from_json(text, habitat, ladder=DEFAULT_LADDER):
    data = json.loads(text)
    if not isinstance(data, list) or not all(
        isinstance(t, list) and len(t) == 3 for t in data
    ):
        raise ValueError("theta file must hold a JSON list of [s, k, n] triples")
    return Theta([tuple(t) for t in data], habitat, ladder)
