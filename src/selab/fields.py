"""Stationary scalar fields indexed by lattice sites.

A field assigns one real value to every site of Z^d as a pure function of
(spec, seed, site): values are computed lazily from a site-keyed hash, so a
trajectory can sample the field anywhere without materializing a box, and
revisits always see the same value.  Each law gives its ``cdf``.

An i.i.d. field also gives ``quantile(u)``, and its value at a site is
``quantile(rng.site_uniforms(seed, site))``: one uniform per site.  Only
value draws call the quantile; the ECDFs of :mod:`empirical` read the
uniforms.  The moving-average field mixes several uniforms per site, so it
has no ``quantile`` and gives ``site_values`` itself.

Gaussian values and cdfs come from ``scipy.special`` (``ndtri``, ``ndtr``),
imported where they are evaluated: importing the package, or the ECDF of an
i.i.d. field, loads no scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import rng
from .ledger import as_coords
from .sources import check_probs


class _Field:
    """Defaults for a law i.i.d. over sites; a subclass gives
    ``quantile`` (or ``site_values``), ``cdf`` and ``variance``."""

    def site_values(self, seed: int, sites) -> np.ndarray:
        return self.quantile(rng.site_uniforms(seed, sites))

    def covariance(self, lag: Sequence[int]) -> float:
        return self.variance if all(c == 0 for c in lag) else 0.0


@dataclass(frozen=True)
class UniformField(_Field):
    """I.i.d. Uniform[0, 1) values."""

    def quantile(self, u: np.ndarray) -> np.ndarray:
        return u

    def cdf(self, s) -> np.ndarray:
        return np.clip(np.asarray(s, dtype=np.float64), 0.0, 1.0)

    @property
    def variance(self) -> float:
        return 1.0 / 12.0


@dataclass(frozen=True)
class GaussianField(_Field):
    """I.i.d. Gaussian values with the given mean and standard deviation."""

    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        if not math.isfinite(self.mu):
            raise ValueError("mu must be finite")
        if not 0 < self.sigma < math.inf:
            raise ValueError("sigma must be positive and finite")

    def quantile(self, u: np.ndarray) -> np.ndarray:
        from scipy.special import ndtri
        # keep inverse-cdf input strictly inside (0, 1)
        u = np.clip(u, 2.0**-53, 1.0 - 2.0**-53)
        return self.mu + self.sigma * ndtri(u)

    def cdf(self, s) -> np.ndarray:
        from scipy.special import ndtr
        return ndtr((np.asarray(s, dtype=np.float64) - self.mu) / self.sigma)

    @property
    def variance(self) -> float:
        return self.sigma**2


@dataclass(frozen=True)
class DiscreteField(_Field):
    """I.i.d. values drawn from a finite real-valued law."""

    atoms: tuple[tuple[float, float], ...]  # (value, probability)

    def __init__(self, atoms):
        atoms = tuple((float(v), float(p)) for v, p in atoms)
        if not atoms:
            raise ValueError("need at least one atom")
        if not all(math.isfinite(v) for v, _ in atoms):
            raise ValueError("atom values must be finite")
        check_probs([p for _, p in atoms])
        if len({v for v, _ in atoms}) != len(atoms):
            raise ValueError("duplicate atom values")
        object.__setattr__(self, "atoms", atoms)

    @cached_property
    def inverse_cdf(self) -> rng.InverseCdf:
        return rng.InverseCdf([p for _, p in self.atoms])

    def quantile(self, u: np.ndarray) -> np.ndarray:
        """The atom value of each u in [0, 1), through the law's guide
        table: the atom ``np.searchsorted(cum, u, "right")`` exactly."""
        vals = np.array([v for v, _ in self.atoms])
        return vals[self.inverse_cdf(np.array(u, dtype=np.float64))]

    def cdf(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=np.float64)
        out = np.zeros_like(s)
        for v, p in self.atoms:
            out = out + p * (s >= v)
        return out

    @property
    def mean(self) -> float:
        return sum(v * p for v, p in self.atoms)

    @property
    def variance(self) -> float:
        m = self.mean
        return sum(p * (v - m) ** 2 for v, p in self.atoms)


@dataclass(frozen=True)
class MovingAverageField(_Field):
    """Finite moving average of i.i.d. Gaussian innovations along axis 0.

    X(site) = sum_j weights[j] * xi(site + j * e_1), with xi i.i.d. centered
    Gaussian of standard deviation ``sigma``.  Nonnegative weights keep the
    field positively associated; the marginal is Gaussian with variance
    sigma^2 * sum weights^2 and the covariance is supported on lags along
    axis 0 within the window.
    """

    weights: tuple[float, ...]
    sigma: float = 1.0

    def __init__(self, weights, sigma=1.0):
        weights = tuple(float(w) for w in weights)
        if not weights:
            raise ValueError("need at least one weight")
        if not all(0 <= w < math.inf for w in weights):
            raise ValueError("weights must be finite and nonnegative")
        if sum(weights) <= 0:
            raise ValueError("weights must not be all zero")
        if not 0 < sigma < math.inf:
            raise ValueError("sigma must be positive and finite")
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "sigma", float(sigma))

    @property
    def window(self) -> int:
        return len(self.weights) - 1

    def site_values(self, seed: int, sites) -> np.ndarray:
        coords = (sites.coords if isinstance(sites, rng.Sites)
                  else as_coords(sites))
        inner = rng.derive(seed, "innovations")
        xi = GaussianField(0.0, self.sigma)  # the innovations' law
        out = np.zeros(coords.shape[0])
        shifted = coords.copy()
        for j, w in enumerate(self.weights):
            shifted[:, 0] = coords[:, 0] + j
            out += w * xi.quantile(rng.site_uniforms(inner, shifted if j
                                                     else sites))
        return out

    @property
    def variance(self) -> float:
        return self.sigma**2 * sum(w * w for w in self.weights)

    def cdf(self, s) -> np.ndarray:  # the marginal's
        return GaussianField(0.0, math.sqrt(self.variance)).cdf(s)

    def covariance(self, lag: Sequence[int]) -> float:
        lag = tuple(int(c) for c in lag)
        if any(c != 0 for c in lag[1:]):
            return 0.0
        h = abs(lag[0])
        if h > self.window:
            return 0.0
        w = self.weights
        return self.sigma**2 * sum(w[j] * w[j + h] for j in range(len(w) - h))


FieldSpec = UniformField | GaussianField | DiscreteField | MovingAverageField
