#!/usr/bin/env python3
"""Deterministic limits of the Loewner flow.

With the driving noise switched off the coefficient flow reproduces the
expansion of sqrt(z^2 + 4t) and the pointwise trace grows the vertical
slit [0, 2i sqrt(t)].  The pointwise trace evolves only the classical
map rho_t, so it is plain numpy here rather than part of the package.
"""

import numpy as np

from superloewner.evolution import loewner_step
from superloewner.scalars import COMPLEX
from superloewner.series import AutSeries


def grid_trace(kappa, dt, t_max, seed, xmax, ymax, nx, ny, record_every,
               eps=1e-3):
    """Evolve rho_t pointwise on a UHP grid and track the tip preimage.

    The tip gamma(t) ~ g_t^{-1}(B0_t) is the active grid point where
    |rho_t(z)| is smallest (g_t = rho_t + B0_t).  A point is swallowed,
    and frozen, once |rho_t| < eps, once it leaves the upper half plane
    (Euler can step across the singularity in one move) or once it stops
    being finite.  Returns the recorded times, tips and swallowed counts.
    """
    xs = np.linspace(-xmax, xmax, nx)
    ys = np.linspace(ymax / ny, ymax, ny)
    grid = (xs[None, :] + 1j * ys[:, None]).ravel()
    rho = grid.copy()
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    nsteps = int(round(t_max / dt))
    swallowed = np.zeros(rho.shape, dtype=bool)
    times, tips, counts = [0.0], [0j], [0]
    for step in range(1, nsteps + 1):
        dB0 = rng.standard_normal() * np.sqrt(kappa * dt)
        active = ~swallowed
        rho[active] = rho[active] + (2.0 / rho[active]) * dt - dB0
        swallowed |= (~np.isfinite(rho) | (np.abs(rho) < eps)
                      | (rho.imag <= 0))
        if step % record_every == 0 or step == nsteps:
            active = ~swallowed
            if active.any():
                idx = np.argmin(np.abs(rho) + np.where(active, 0.0, np.inf))
            else:
                idx = np.argmin(np.abs(grid))
            times.append(step * dt)
            tips.append(complex(grid[idx]))
            counts.append(int(swallowed.sum()))
    return times, tips, counts


print("Coefficient flow: d rho(z) = (2/rho) dt with dB0 = 0")
rho = AutSeries.identity(4, COMPLEX)
dt, nsteps = 1e-5, 10000
for _ in range(nsteps):
    rho = loewner_step(rho, dt, 0.0)
t = dt * nsteps
print(f"  after t = {t}:")
print(f"    a_-1 = {complex(rho.coeffs[1]).real:.6f}   (exact 2t = {2*t})")
print(f"    a_-3 = {complex(rho.coeffs[3]).real:.6f}  (exact -2t^2 = {-2*t*t})")

print("\nPointwise trace on an upper-half-plane grid:")
times, tips, counts = grid_trace(kappa=0.0, dt=1e-4, t_max=0.16, seed=1,
                                 xmax=1.0, ymax=1.2, nx=81, ny=96,
                                 record_every=400)
for tt, tip, sw in zip(times, tips, counts):
    if tt > 0:
        print(f"  t={tt:.3f}: tip ~ {tip:.3f}, slit height 2 sqrt(t) = "
              f"{2*np.sqrt(tt):.3f}, swallowed grid points = {sw}")
        assert abs(tip - 2j * np.sqrt(tt)) < 0.05, tt
assert counts == sorted(counts) and counts[-1] > 0, counts

print("\nA noisy trace (kappa = 2) for comparison:")
times, tips, counts = grid_trace(kappa=2.0, dt=1e-4, t_max=0.16, seed=8,
                                 xmax=1.5, ymax=1.2, nx=81, ny=64,
                                 record_every=800)
for tt, tip in zip(times, tips):
    if tt > 0:
        print(f"  t={tt:.3f}: tip ~ {tip:.3f}")
assert counts == sorted(counts), counts
