"""Calibration kernels: how fast this machine is running right now.

The host the benchmark was built on shares its cores. For tens of seconds at a
time it runs every process up to 1.7x slower, and raw run medians of one
workload spread by 0.10 to 0.25, with whole runs slow. So the runner times a
calibration kernel right before and right after every body and rescales the
body's time by REFERENCE_S / the mean calibration time, which gives the body's
time at the reference speed of the machine.

Each kernel is a small frozen copy, in plain numpy and scipy, of the kind of
work its workload's body does, so that contention slows the two alike. None of
them calls fastfronts: a change to the package moves the body, never the
calibration.
"""

from __future__ import annotations

import os
import time

import numpy as np
from scipy.linalg import solve_banded


def _logistic(u, dt):
    e = np.exp(dt)
    return u * e / (1.0 - u + u * e)


def _gaussian(n, half_length):
    x = np.linspace(-half_length, half_length, n, endpoint=False)
    return x, np.exp(-(x * x) / 100.0)


def _spectral_steps(n, half_length, power, steps):
    _, u = _gaussian(n, half_length)
    xi = np.pi * np.arange(n // 2 + 1) / half_length
    factor = np.exp(-(xi ** power) * 0.01)
    for _ in range(steps):
        u = _logistic(u, 0.005)
        u = np.fft.irfft(np.fft.rfft(u) * factor)
        u = _logistic(u, 0.005)
        np.clip(u, 0.0, 1.0, out=u)
    return u


def spectral(scratch):
    """fig1a: FFT pair and logistic on 2^17 nodes."""
    _spectral_steps(2**17, 5000.0, 1.8, 3)


def newton(scratch):
    """fig1c: Kirchhoff potential, Laplacian and tridiagonal solves on 2^16 nodes."""
    n, dx, dt = 2**16, 8000.0 / 2**16, 0.01
    _, u0 = _gaussian(n, 4000.0)
    u, r = u0.copy(), dt / dx**2
    for _ in range(3):
        w = np.maximum(u, 1e-8) ** 0.5
        lap = np.empty_like(w)
        lap[1:-1] = (w[:-2] - 2.0 * w[1:-1] + w[2:]) / dx**2
        lap[0], lap[-1] = (w[1] - w[0]) / dx**2, (w[-2] - w[-1]) / dx**2
        d = 0.5 * np.maximum(u, 1e-8) ** -0.5
        ab = np.zeros((3, n))
        ab[0, 1:], ab[1], ab[2, :-1] = -r * d[1:], 1.0 + 2.0 * r * d, -r * d[:-1]
        u = u + solve_banded((1, 1), ab, -(u - dt * lap - u0))


def bundle(scratch):
    """fig1d-bundle: FFT steps on 2^13 nodes and a formatted text dump."""
    x, _ = _gaussian(2**13, 400.0)
    u = _spectral_steps(2**13, 400.0, 2.0, 25)
    with open(os.path.join(scratch, "calibration.txt"), "w") as fh:
        for xv, uv in zip(x, u):
            fh.write(f"{xv:.17g} {uv:.17g}\n")


def subcycle(scratch):
    """ffd-subcycle: explicit sub-cycles of small FFT pairs on 2^13 nodes."""
    _, u = _gaussian(2**13, 400.0)
    m = -((np.pi * np.arange(2**12 + 1) / 400.0) ** 1.5)
    for _ in range(60):
        w = np.maximum(u, 1e-8) ** 0.8
        u = u + 8.5e-5 * np.fft.irfft(np.fft.rfft(w) * m)


KERNELS = {
    "fig1a-spectral": spectral,
    "fig1c-newton": newton,
    "fig1d-bundle": bundle,
    "ffd-subcycle": subcycle,
}

# Seconds one run of each kernel takes at the reference speed: the fastest
# twentieth of its runs in a 40-second loop on the baseline machine (2-vCPU
# Intel Xeon VM, numpy 2.4.6, scipy 1.17.1).
REFERENCE_S = {
    "fig1a-spectral": 0.0227,
    "fig1c-newton": 0.0175,
    "fig1d-bundle": 0.0270,
    "ffd-subcycle": 0.0144,
}

REPEATS = 3


def calibrate(name, scratch) -> float:
    """Mean seconds of one run of the workload's kernel over REPEATS runs.

    A mean, not a minimum: a body lasts a second or more and feels every
    contended moment in it, and so must its calibration.
    """
    kernel = KERNELS[name]
    start = time.perf_counter()
    for _ in range(REPEATS):
        kernel(scratch)
    return (time.perf_counter() - start) / REPEATS
