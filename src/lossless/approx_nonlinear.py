"""Lossless approximations of active systems.

A dissipative kernel can be played by a bank of oscillators, but an
active gain (a negative resistor, say) cannot: a linear lossless
realization starts with whatever energy its initial state holds, and
tracking y = k u with indefinite k means handing out energy forever.
The fix is nonlinear.  One auxiliary state x_E, charged to
x_E(0) = sqrt(2 E0), carries the supply; scaling the output by
x_E / sqrt(2 E0) makes the pair exactly lossless while reproducing
k u to O(1/E0) for as long as the charge lasts.

The same trick wraps an arbitrary ODE dx/dt = f(x, u), y = g(x, u):
multiply the field by x_E / sqrt(2 E0) and route the power imbalance
g(x, u)^T u - x^T f(x, u) into the supply state.  The stored energy
(||x||^2 + x_E^2) / 2 then changes exactly at the port work rate, and
the wrapped state tracks the original to O(1 / sqrt(E0)) at worst.

`supply_error_bound` gives the a-priori error constant for the
memoryless construction; `convergence_order` fits either decay law
empirically from a sweep over initial energies.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.integrate import cumulative_trapezoid, simpson

from ._util import as_float_array, frozen, positive
from .statespace import Trajectory, _input_samples, _port_samples, _rk4, _square_gain

__all__ = [
    "ConvergenceFit",
    "EnergySupplyApprox",
    "WrappedSystem",
    "convergence_order",
    "simulate_energy_supply",
    "simulate_wrapped",
    "supply_error_bound",
    "supply_error_running_bound",
    "wrap_lossless",
]


@dataclass(frozen=True)
class EnergySupplyApprox:
    """Memoryless gain played losslessly off a charged supply state.

    The supply state integrates the absorbed power u^T k u (negative for
    an active gain, so the charge drains) and modulates the output:

        x_E(t) = sqrt(2 E0) + int_0^t u^T k u ds / sqrt(2 E0),
        y_E(t) = (x_E(t) / sqrt(2 E0)) k u(t).

    Stored energy x_E^2 / 2 starts at `initial_energy` and changes at
    exactly the port work rate y_E^T u.
    """

    gain: np.ndarray
    initial_energy: float

    def __post_init__(self):
        object.__setattr__(self, "gain", frozen(_square_gain(self.gain)))
        object.__setattr__(self, "initial_energy", positive(self.initial_energy, "initial_energy"))

    @property
    def ports(self) -> int:
        return self.gain.shape[0]

    @property
    def initial_supply(self) -> float:
        """Starting charge of the supply state, sqrt(2 E0)."""
        return math.sqrt(2.0 * self.initial_energy)

    def respond(self, u: Trajectory) -> tuple[Trajectory, Trajectory]:
        """Output and supply trajectories, in closed form.

        The running integral of u^T k u uses the trapezoid rule on the
        input grid; no ODE solve is involved.
        """
        vals = _port_samples(u, self.ports, owner="the gain")
        drive = vals @ self.gain.T
        absorbed = cumulative_trapezoid(np.sum(vals * drive, axis=1), dx=u.dt, initial=0.0)
        supply = self.initial_supply + absorbed / self.initial_supply
        outputs = (drive * (supply / self.initial_supply)[:, None]).reshape(u.values.shape)
        return Trajectory(dt=u.dt, values=outputs), Trajectory(dt=u.dt, values=supply)


def simulate_energy_supply(gain, initial_energy, u: Trajectory) -> tuple[Trajectory, Trajectory]:
    """Closed-form response of the lossless copy of y = k u.

    Returns the pair (outputs, supply) on the input grid.  Equivalent to
    wrapping the memoryless map with `wrap_lossless` over an empty state
    and integrating, but needs only a running quadrature.
    """
    return EnergySupplyApprox(gain=gain, initial_energy=initial_energy).respond(u)


def supply_error_bound(gain, input_peak, horizon, initial_energy) -> float:
    """Worst-case error constant of the energy-supply construction.

    For any input with ||u(t)|| <= input_peak on [0, horizon], the
    lossless copy of y = k u satisfies

        ||y_E(t) - y(t)||  <=  bound * ||u||_{L2[0, t]},

    with bound = smax(k)^2 input_peak^2 sqrt(horizon) / (2 E0).  The
    bound shrinks linearly in the initial charge, so any accuracy is
    reachable on a finite window by charging the supply high enough.
    """
    gain = _square_gain(gain)
    peak = positive(input_peak, "input_peak")
    window = positive(horizon, "horizon")
    energy = positive(initial_energy, "initial_energy")
    top = float(np.linalg.norm(gain, 2))
    return top**2 * peak**2 * math.sqrt(window) / (2.0 * energy)


def supply_error_running_bound(gain, u: Trajectory, initial_energy) -> Trajectory:
    """Pointwise error bound smax(k)^2 ||u(t)|| int_0^t ||u||^2 ds / (2 E0).

    This is the quantity `supply_error_bound` majorizes before the input
    norms are replaced by their peaks, so it is never looser; for a
    scalar gain it equals the actual error.
    """
    gain = _square_gain(gain)
    energy = positive(initial_energy, "initial_energy")
    vals = _port_samples(u, gain.shape[0], owner="the gain")
    norms = np.linalg.norm(vals, axis=1)
    mass = cumulative_trapezoid(norms**2, dx=u.dt, initial=0.0)
    top = float(np.linalg.norm(gain, 2))
    return Trajectory(dt=u.dt, values=top**2 * norms * mass / (2.0 * energy))


@dataclass(frozen=True)
class WrappedSystem:
    """An ODE and its lossless copy, sharing field f and output map g.

    The copy integrates

        d x_hat / dt = (x_E / sqrt(2 E0)) f(x_hat, u),
        d x_E / dt   = (g(x_hat, u)^T u - x_hat^T f(x_hat, u)) / sqrt(2 E0),
        y_E          = (x_E / sqrt(2 E0)) g(x_hat, u),

    from x_hat(0) = x0, x_E(0) = sqrt(2 E0).  Both maps take (state,
    input) and may return anything reshapeable to the right length.
    """

    field: Callable[[np.ndarray, np.ndarray], object]
    output: Callable[[np.ndarray, np.ndarray], object]
    initial_state: np.ndarray
    initial_energy: float

    def __post_init__(self):
        if not callable(self.field) or not callable(self.output):
            raise TypeError("field and output must be callables of (state, input)")
        state = as_float_array(self.initial_state, "initial state").reshape(-1)
        object.__setattr__(self, "initial_state", frozen(state))
        object.__setattr__(self, "initial_energy", positive(self.initial_energy, "initial_energy"))

    @property
    def n(self) -> int:
        return self.initial_state.shape[0]

    @property
    def initial_supply(self) -> float:
        return math.sqrt(2.0 * self.initial_energy)


def wrap_lossless(field, output, initial_state, initial_energy) -> WrappedSystem:
    """Wrap dx/dt = f(x, u), y = g(x, u) into a lossless copy.

    The construction costs one extra state regardless of the system; its
    fidelity is bought with `initial_energy` (state error decays at
    least like 1 / sqrt(E0), see `convergence_order`).
    """
    return WrappedSystem(
        field=field, output=output, initial_state=initial_state, initial_energy=initial_energy
    )


def simulate_wrapped(
    ws: WrappedSystem,
    u,
    dt: float | None = None,
    horizon: float | None = None,
) -> tuple[Trajectory, Trajectory, Trajectory]:
    """Integrate the lossless copy with fixed-step RK4.

    Parameters
    ----------
    ws : WrappedSystem
    u : Trajectory or callable
        Sampled input (the simulation grid is its grid, cubic
        interpolation at half-steps) or a function of time, which
        requires `dt` and `horizon`.
    horizon : float, optional
        Simulation length, defaulting to the full input record.

    Returns
    -------
    (states, supply, outputs) : Trajectory triple
        x_hat rows, the scalar supply state, and y_E rows.

    Raises
    ------
    FloatingPointError
        If the augmented state leaves float range (time reported), or if
        the closing energy audit |Delta E - int y_E . u| fails, which
        points at a step size too coarse for the field.
    """
    if u is None:
        raise TypeError("u must be a Trajectory or a callable (the port count comes from it)")
    ports = np.size(u(0.0)) if callable(u) else _port_samples(u).shape[1]
    u_vals, u_mids, h = _input_samples(u, ports, dt, horizon)
    steps = u_vals.shape[0] - 1
    root = ws.initial_supply
    field, output = ws.field, ws.output

    def rates(z, uv):
        # z packs the state x with the supply state x_e as its last entry
        x = z[:-1]
        fx = np.asarray(field(x, uv), dtype=float).reshape(x.shape)
        gx = np.asarray(output(x, uv), dtype=float).reshape(uv.shape)
        dz = np.empty(z.shape)
        np.multiply(z[-1] / root, fx, out=dz[:-1])
        dz[-1] = (float(gx @ uv) - float(x @ fx)) / root
        return dz

    path = _rk4(rates, np.append(ws.initial_state, root), u_vals, u_mids, h)
    states, supply = path[:, :-1], path[:, -1]

    outputs = np.empty((steps + 1, ports))
    for k in range(steps + 1):
        gx = np.asarray(output(states[k], u_vals[k]), dtype=float).reshape(ports)
        outputs[k] = (supply[k] / root) * gx

    # Losslessness is an algebraic identity of the wrapped field, so the
    # only way the books fail to balance is integration error; audit it.
    energy = 0.5 * (np.sum(states**2, axis=1) + supply**2)
    work = np.sum(outputs * u_vals, axis=1)
    residual = abs(energy[-1] - energy[0] - float(simpson(work, dx=h)))
    guard = 1e3 * h**4 * steps * max(1.0, float(np.abs(work).max())) + 1e-12 * float(
        np.abs(energy).max()
    )
    if residual > guard:
        raise FloatingPointError(
            f"energy audit failed: |dE - work| = {residual:.3g} exceeds {guard:.3g}; reduce dt"
        )
    return (
        Trajectory(dt=h, values=states),
        Trajectory(dt=h, values=supply),
        Trajectory(dt=h, values=outputs),
    )


@dataclass(frozen=True)
class ConvergenceFit:
    """Fitted decay law of approximation error against initial energy."""

    slope: float
    energies: np.ndarray
    errors: np.ndarray
    excluded: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "energies", frozen(np.asarray(self.energies, dtype=float)))
        object.__setattr__(self, "errors", frozen(np.asarray(self.errors, dtype=float)))
        object.__setattr__(self, "excluded", tuple(int(i) for i in self.excluded))


def convergence_order(factory, energies, reference, *, error_floor=1e-12) -> ConvergenceFit:
    """Sup-norm error of factory(E0) against a reference, log-log fitted.

    `factory` maps an initial energy to a Trajectory (or plain array)
    shaped like `reference`.  The grid must span at least three decades,
    otherwise the fitted exponent is noise.  Points whose error has
    fallen to `error_floor` measure the integrator, not the
    construction; they are dropped from the fit and reported through
    the `excluded` field of the result.

    The memoryless supply construction fits a slope of -1.  The generic
    wrapper is guaranteed -1/2, though it typically measures -1 as well:
    the supply drift perturbing the field is itself O(1 / sqrt(E0)), so
    the product entering the state equation is second order.
    """
    grid = as_float_array(energies, "energies", ndim=1)
    if grid.shape[0] < 2 or np.any(grid <= 0):
        raise ValueError("energies must hold at least two positive values")
    if np.log10(grid.max() / grid.min()) < 3.0 - 1e-9:
        raise ValueError("energy grid must span at least three decades")
    ref = reference.values if isinstance(reference, Trajectory) else np.asarray(reference, dtype=float)
    errors = np.empty(grid.shape[0])
    for i, e0 in enumerate(grid):
        out = factory(float(e0))
        vals = out.values if isinstance(out, Trajectory) else np.asarray(out, dtype=float)
        if vals.shape != ref.shape:
            raise ValueError(f"factory output has shape {vals.shape}, reference {ref.shape}")
        errors[i] = float(np.abs(vals - ref).max())
    keep = errors > error_floor
    if int(keep.sum()) < 2:
        raise ValueError("fewer than two points above the error floor; nothing to fit")
    slope = float(np.polyfit(np.log10(grid[keep]), np.log10(errors[keep]), 1)[0])
    return ConvergenceFit(
        slope=slope,
        energies=grid,
        errors=errors,
        excluded=tuple(np.flatnonzero(~keep)),
    )
