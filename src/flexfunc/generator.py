"""Finite-volume generator of the state diffusion and distribution tools.

The Ito SDE dX = a(x) dt + b(x) dW on [0, 1], the one ``dynamics``
simulates by Euler-Maruyama, has the Fokker-Planck flux
J = (a - D') p - D p' with D = b^2 / 2, and so the stationary density
exp(int a / D) / D.  It is discretized into a continuous-time birth-death
chain on uniform cells using exponential fitting (Chang-Cooper /
Scharfetter-Gummel weights): with interface drift ``v = a - D'``,
interface diffusion ``D`` and Peclet number ``w = v h / D`` the jump rates
are

    up   = (D / h^2) * B(-w),     down = (D / h^2) * B(w),

where B(z) = z / (exp(z) - 1).  This reproduces the local Gibbs ratio
exp(v h / D) exactly and gives zero-flux (conservative) boundaries
because no rates leave the domain.  These fitted rates are taken wherever
w is finite; where D is 0, or too small to divide v h by, w is not finite
and the interface takes their D -> 0 limit, the upwind rates
up = max(v, 0) / h and down = max(-v, 0) / h.  Rows of the rate matrix
sum to zero by construction.

Distributions are represented as densities at cell centers; multiply by
the cell width to get probabilities.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._csvio import write_csv
from .model import FlexParams, check_unit, diffusion, drift

MIN_CELLS = 16  # the coarsest grid build_generator takes
# The most time steps one transient series or one convergence study takes.  A
# gttrs step costs 3.2-3.4 us at 200 cells and 25-28 us at 2000 (2-core host),
# and a fine step of the study 13 us at 1 path and 54 us at 1000, so the limit
# is about 35 s of solves at the default 200 cells, 10^4 times a default series
# (1000 steps) and over 2000 times the default study (4096 fine steps).
MAX_STEPS = 10**7


@dataclass(frozen=True)
class StateGrid:
    """Uniform cell grid on [0, 1]."""

    n_cells: int

    def __post_init__(self) -> None:
        if int(self.n_cells) != self.n_cells or self.n_cells < 2:
            raise ValueError(f"n_cells must be an integer >= 2, got {self.n_cells}")

    @property
    def width(self) -> float:
        return 1.0 / self.n_cells

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.n_cells + 1)

    @property
    def centers(self) -> np.ndarray:
        return (np.arange(self.n_cells) + 0.5) * self.width

    def cell_of(self, x: float) -> int:
        return min(self.n_cells - 1, int(check_unit("x", x) * self.n_cells))


@np.errstate(over="ignore", invalid="ignore")  # the discarded branches may overflow or be 0 / 0
def _bernoulli(z: np.ndarray) -> np.ndarray:
    """B(z) = z / (exp(z) - 1), stable for any float z."""
    z = np.asarray(z, dtype=float)
    # below z ~ -37.4 expm1(z) is exactly -1.0, so this is -z there, bit for bit
    return np.where(np.abs(z) < 1e-8, 1.0 - 0.5 * z, np.where(z > 700.0, 0.0, z / np.expm1(z)))


@dataclass(frozen=True)
class GeneratorMatrix:
    """Tridiagonal rate matrix of the state chain (rows sum to zero).

    ``up[i]`` is the rate i -> i+1 (up[-1] = 0) and ``down[i]`` the rate
    i -> i-1 (down[0] = 0).
    """

    grid: StateGrid
    up: np.ndarray
    down: np.ndarray

    def __post_init__(self) -> None:
        n = self.grid.n_cells
        if self.up.shape != (n,) or self.down.shape != (n,):
            raise ValueError("up/down must have one entry per cell")
        if self.up[-1] != 0.0 or self.down[0] != 0.0:
            raise ValueError("boundary rates must vanish (zero-flux)")
        if np.any(self.up < 0.0) or np.any(self.down < 0.0):
            raise ValueError("rates must be nonnegative")

    @property
    def n_cells(self) -> int:
        return self.grid.n_cells

    @property
    def diag(self) -> np.ndarray:
        return -(self.up + self.down)

    def connected(self) -> bool:
        return bool(np.all((self.up[:-1] > 0.0) | (self.down[1:] > 0.0)))


def build_generator(
    params: FlexParams,
    u: float,
    B: float,
    n_cells: int = 200,
) -> GeneratorMatrix:
    """Rate matrix for constant price u and baseline B.

    ``ArithmeticError`` if a rate, or up * down at an interface (whose square
    root ``spectral_gap`` takes), is not finite."""
    if n_cells < MIN_CELLS:
        raise ValueError(f"grid too coarse: n_cells must be >= {MIN_CELLS}, got {n_cells}")
    u, B = check_unit("u", u), check_unit("B", B)
    grid = StateGrid(n_cells)
    h = grid.width
    x_if = grid.edges[1:-1]
    with np.errstate(all="ignore"):  # non-finite values are chosen away or refused below
        d_prime = np.float64(params.sigma_x) ** 2 * x_if * (1.0 - x_if) * (1.0 - 2.0 * x_if)  # the Ito term D'
        v = np.asarray(drift(params, x_if, u, B)) - d_prime
        d = 0.5 * np.asarray(diffusion(params, x_if)) ** 2
        w = v * h / d  # the Peclet number
        fitted = np.isfinite(w)
        up_if = np.where(fitted, d / h**2 * _bernoulli(-w), np.maximum(v, 0.0) / h)
        dn_if = np.where(fitted, d / h**2 * _bernoulli(w), np.maximum(-v, 0.0) / h)
        rate_product = up_if * dn_if
    if not (np.isfinite(up_if).all() and np.isfinite(dn_if).all()):
        raise ArithmeticError(f"non-finite jump rate at (u, B) = ({u!r}, {B!r})")
    if not np.isfinite(rate_product).all():
        raise ArithmeticError(f"the product up * down of two jump rates overflows at (u, B) = ({u!r}, {B!r})")
    up = np.append(up_if, 0.0)
    down = np.insert(dn_if, 0, 0.0)
    return GeneratorMatrix(grid=grid, up=up, down=down)


def point_mass_pdf(grid: StateGrid, x0: float) -> np.ndarray:
    """Density of a point mass placed in the cell containing x0."""
    pdf = np.zeros(grid.n_cells)
    pdf[grid.cell_of(x0)] = 1.0 / grid.width
    return pdf


@dataclass(frozen=True)
class DistributionSeries:
    """Cell-center densities at a sequence of times."""

    times: np.ndarray
    grid: StateGrid
    pdfs: np.ndarray  # (n_times, n_cells)

    def cumulative(self) -> DistributionSeries:
        """The same times with rows holding cumulative probabilities."""
        cdfs = np.cumsum(self.pdfs * self.grid.width, axis=1)
        return DistributionSeries(times=self.times, grid=self.grid, pdfs=cdfs)

    def to_csv(self, path, value_label: str = "pdf") -> None:
        n_times, n_cells = self.pdfs.shape
        t = np.repeat(self.times, n_cells)
        x = np.tile(self.grid.centers, n_times)
        write_csv(path, f"t,x,{value_label}", (t, x, self.pdfs.ravel()))


def evolve_pdf(
    gen: GeneratorMatrix,
    pdf0: np.ndarray,
    times,
    dt: float | None = None,
) -> DistributionSeries:
    """Transient densities at the requested times from initial density pdf0.

    Implicit one-step time stepping: (I - dt G^T) p_{new} = p.  The system
    matrix is an M-matrix, so every step conserves mass (columns of G^T sum
    to zero) and preserves nonnegativity for any step size, exactly in real
    arithmetic and to rounding in floats; the stationary density is its
    exact fixed point.  Each interval between requested times takes n_sub
    equal steps of span / n_sub, the fewest no longer than ``dt`` (up to a
    1e-12 relative slack).  LAPACK ``gttrf`` factors the matrix once per
    interval and every step is one ``gttrs`` solve.  The matrix is strictly
    column diagonally dominant, so partial pivoting never swaps rows and the
    factors keep the M-matrix sign pattern.

    A zero pivot raises ``ArithmeticError``, and so do, before any solve, an
    interval whose span / dt overflows and a series of more than
    ``MAX_STEPS`` steps and, naming the step, a non-finite band and an
    interval that ends with a negative probability or a mass more than 1e-9
    (the slack pdf0 gets) from 1: a step so long that step * rate dwarfs
    1 / eps loses the identity in I - step G^T.
    """
    # Lazy import: an eager scipy import costs every command ~25 MB and ~0.3 s.
    from scipy.linalg.lapack import dgttrf, dgttrs

    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or len(times) == 0:
        raise ValueError("times must be a nonempty 1-D sequence")
    if not np.all(np.isfinite(times)):
        raise ValueError(f"times must be finite, got {times.tolist()}")
    if np.any(np.diff(times) < 0.0) or times[0] < 0.0:
        raise ValueError("times must be nondecreasing and nonnegative")
    pdf0 = np.asarray(pdf0, dtype=float)
    if pdf0.shape != (gen.n_cells,):
        raise ValueError("pdf0 must have one density per cell")
    if np.any(pdf0 < 0.0):
        raise ValueError("pdf0 must be nonnegative")
    h = gen.grid.width
    mass = pdf0.sum() * h
    if abs(mass - 1.0) > 1e-9:
        raise ValueError(f"pdf0 must integrate to 1, got {mass!r}")
    if dt is None:
        span = float(times[-1])
        dt = span / 1000.0 if span > 0.0 else 1.0
    if not (np.isfinite(dt) and dt > 0.0):
        raise ValueError(f"dt must be positive and finite, got {dt}")

    spans = np.diff(times, prepend=0.0)
    with np.errstate(over="ignore"):  # refused below
        ratios = spans / dt
    n_subs = np.where(spans > 0.0, np.maximum(1.0, np.ceil(ratios - 1e-12)), 0.0)
    for span, t, total in zip(spans, times, np.cumsum(n_subs)):
        if not np.isfinite(total):
            raise ArithmeticError(f"step count of the interval {float(span)!r} ending at "
                                  f"t = {float(t)!r} over dt = {dt!r} overflows")
        if total > MAX_STEPS:
            raise ArithmeticError(f"the interval {float(span)!r} ending at t = {float(t)!r} over "
                                  f"dt = {dt!r} takes the series to {total:.6g} steps, "
                                  f"more than the limit of {MAX_STEPS:.6g}")

    p = pdf0 * h  # probabilities
    out = np.empty((len(times), gen.n_cells))
    for j, (t, span, n_sub) in enumerate(zip(times, spans, n_subs.astype(int))):
        if n_sub > 0:
            step = span / n_sub
            # bands of A = I - step*G^T:  sub_A = -step*up[:-1], sup_A = -step*down[1:]
            with np.errstate(over="ignore", invalid="ignore"):  # refused below
                bands = (-step * gen.up[:-1], 1.0 - step * gen.diag, -step * gen.down[1:])
            if not all(np.isfinite(band).all() for band in bands):
                raise ArithmeticError(f"non-finite implicit step matrix at step {float(step)!r}")
            *lu, info = dgttrf(*bands)
            if info != 0:
                raise ArithmeticError(f"zero pivot {info} in the implicit step matrix")
            for _ in range(n_sub):
                p, _ = dgttrs(*lu, p, overwrite_b=1)
            # a NaN fails p >= 0, and an inf makes the sum inf or NaN
            if not (np.all(p >= 0.0) and abs(p.sum() - 1.0) <= 1e-9):
                raise ArithmeticError(
                    f"implicit steps of {float(step)!r} lost mass or positivity by t = {float(t)!r}: "
                    f"probabilities sum to {float(p.sum())!r}, smallest {float(p.min())!r}"
                )
        out[j] = p / h
    return DistributionSeries(times=times, grid=gen.grid, pdfs=out)


def stationary_pdf(gen: GeneratorMatrix) -> np.ndarray:
    """Stationary density of the chain.

    For a connected chain the zero-net-flux recursion
    pi_{i+1} = pi_i * up_i / down_{i+1} is exact (detailed balance holds for
    any one-dimensional birth-death chain); it is evaluated in log space.
    A disconnected chain (pure drift, sigma_x = 0) has no unique stationary
    density and raises ``ArithmeticError``.
    """
    if not gen.connected():
        raise ArithmeticError("stationary density undefined for a disconnected chain")
    logpi = _log_stationary(gen)
    pi = np.exp(logpi)
    pi /= pi.sum()
    return pi / gen.grid.width


def stationary_moments(gen: GeneratorMatrix) -> tuple[float, float]:
    """Mean and variance of the stationary density."""
    return density_moments(gen.grid, stationary_pdf(gen))


def density_moments(grid: StateGrid, pdf: np.ndarray) -> tuple[float, float]:
    """Mean and variance of a density given by its cell averages on ``grid``."""
    x = grid.centers
    w = pdf * grid.width
    mean = float(np.dot(w, x))
    var = float(np.dot(w, (x - mean) ** 2))
    return mean, var


def _log_stationary(gen: GeneratorMatrix) -> np.ndarray:
    """Log stationary weights from the zero-net-flux recursion.

    Jump rates can underflow to exactly zero in the far tails (huge Peclet
    numbers); those log-ratios are clamped to +-4000 which leaves the
    stationary weights there at exactly zero after exponentiation while
    keeping the cumulative sum free of inf - inf artifacts.
    """
    with np.errstate(divide="ignore"):
        steps = np.log(gen.up[:-1]) - np.log(gen.down[1:])
    steps = np.clip(steps, -4000.0, 4000.0)
    logpi = np.concatenate(([0.0], np.cumsum(steps)))
    return logpi - logpi.max()


def spectral_gap(gen: GeneratorMatrix) -> float:
    """Least-negative nonzero eigenvalue of the generator, the relaxation rate.

    The chain is reversible, so the generator is symmetrized by the
    stationary measure into a tridiagonal matrix with off-diagonal
    sqrt(up_i * down_{i+1}); LAPACK interval halving (``stebz`` via
    ``eigh_tridiagonal``) computes only that eigenvalue, index n-2 in
    ascending order (n-1 is the zero mode).  A search that fails to converge
    raises ``LinAlgError``, and a disconnected chain, which has no gap,
    raises ``ArithmeticError``.
    """
    # Lazy import: an eager scipy import costs every command ~25 MB and ~0.3 s.
    from scipy.linalg import eigh_tridiagonal

    if not gen.connected():
        raise ArithmeticError("spectral gap undefined for a disconnected chain")
    k = gen.n_cells - 2
    off = np.sqrt(gen.up[:-1] * gen.down[1:])
    lam = eigh_tridiagonal(gen.diag, off, eigvals_only=True, select="i", select_range=(k, k))
    return float(lam[0])


def write_stationary_csv(path, grid: StateGrid, pdf: np.ndarray) -> None:
    write_csv(path, "x,pdf", (grid.centers, pdf))
