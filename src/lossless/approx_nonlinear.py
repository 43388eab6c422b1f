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

from ._util import as_float_array, cumulative_trapezoid, frozen, positive
from .statespace import Trajectory, _input_samples, _port_samples, _rk4, _square_gain, energy_ledger

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

#: `convergence_order` fits only the errors above this; smaller ones
#: measure the integrator, not the construction.
_ERROR_FLOOR = 1e-12


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
        outputs, supply = _supply_forms(self.gain, vals, u.dt, self.initial_energy, u.duration)[:2]
        return Trajectory(dt=u.dt, values=outputs.reshape(u.values.shape)), Trajectory(dt=u.dt, values=supply)


def _supply_forms(gain, vals, dt: float, energies, horizon: float):
    """The closed forms of the supply construction for inputs sampled at step dt.

    `vals` is (m, ..., p), time first, and `energies` holds the initial
    energies E0 of the batch axes between.  Returns, each time first, the
    outputs y_E (m, ..., p) and supply x_E (m, ...) of
    `EnergySupplyApprox.respond`, the error ||y_E - k u|| (m, ...) and two
    bounds on it: `supply_error_running_bound`'s, and `supply_error_bound`'s
    over `horizon` at the input's peak times ||u||_{L2[0, t]}.  With the
    charge c = int_0^t u . k u, y_E = k u + k u c / (2 E0), so the error is
    ||k u|| |c| / (2 E0), formed without the cancellation of y_E - k u.
    """
    top = float(np.linalg.norm(gain, 2))
    root = np.sqrt(2.0 * energies)
    drive = vals @ gain.T
    charge = cumulative_trapezoid(np.sum(vals * drive, axis=-1), dt)
    supply = root + charge / root
    excess = charge / (2.0 * energies)
    outputs = drive + drive * excess[..., None]
    errors = np.linalg.norm(drive, axis=-1) * np.abs(excess)
    norms = np.linalg.norm(vals, axis=-1)
    mass = cumulative_trapezoid(norms**2, dt)  # int_0^t ||u||^2 ds
    running = top**2 * norms * mass / (2.0 * energies)
    flat = _flat_bound(top, norms.max(axis=0), horizon, energies) * np.sqrt(mass)
    return outputs, supply, errors, running, flat


def _flat_bound(top: float, peak, horizon: float, energy):
    """smax(k)^2 input_peak^2 sqrt(horizon) / (2 E0), given smax(k) = `top`."""
    return top**2 * peak**2 * np.sqrt(horizon) / (2.0 * energy)


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
    return float(_flat_bound(float(np.linalg.norm(gain, 2)), peak, window, energy))


def supply_error_running_bound(gain, u: Trajectory, initial_energy) -> Trajectory:
    """Pointwise error bound smax(k)^2 ||u(t)|| int_0^t ||u||^2 ds / (2 E0).

    This is the quantity `supply_error_bound` majorizes before the input
    norms are replaced by their peaks, so it is never looser; for a
    scalar gain it equals the actual error.
    """
    gain = _square_gain(gain)
    energy = positive(initial_energy, "initial_energy")
    vals = _port_samples(u, gain.shape[0], owner="the gain")
    return Trajectory(dt=u.dt, values=_supply_forms(gain, vals, u.dt, energy, u.duration)[3])


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


def _wrapped_paths(field, output, x0, roots, u_vals, u_mids, h: float, stacked: bool = False):
    """RK4 paths of the wrapped field for a batch of supply charges at once.

    `roots` holds the charges sqrt(2 E0) in any batch shape B, () for one
    system; they share the (n,) start `x0`.  `field` and `output` receive
    B + (n,) states and a (p,) input and return B + (n,) and B + (p,).
    With `stacked` they receive the input as (1,) * len(B) + (p,) and
    must also take a leading axis of steps, states (w,) + B + (n,) with
    inputs (w,) + (1,) * len(B) + (p,), each row bit for bit as alone;
    `_rk4` then runs many steps per call, and the outputs are formed in
    one call.  Returns states, supply and outputs
    shaped (steps + 1,) + B + (n,), (steps + 1,) + B and
    (steps + 1,) + B + (p,).  Each charge is audited on its own; one
    failed audit or diverging charge fails the batch.
    """
    roots = np.asarray(roots, dtype=float)
    batch, ports = roots.shape, u_vals.shape[1:]
    if stacked:
        u_vals, u_mids = (u.reshape(u.shape[:1] + (1,) * len(batch) + ports) for u in (u_vals, u_mids))

    def rates(z, uv):
        # z packs the state x with the supply state x_e as its last entry
        x = z[..., :-1]
        fx = np.asarray(field(x, uv), dtype=float).reshape(x.shape)
        gx = np.asarray(output(x, uv), dtype=float).reshape(z.shape[:-1] + ports)
        dz = np.empty(z.shape)
        np.multiply((z[..., -1] / roots)[..., None], fx, out=dz[..., :-1])
        dz[..., -1] = (np.vecdot(gx, uv) - np.vecdot(x, fx)) / roots
        return dz

    z0 = np.concatenate([np.broadcast_to(x0, batch + x0.shape), roots[..., None]], axis=-1)
    path = _rk4(rates, z0, u_vals, u_mids, h, rates if stacked else None)
    states, supply = path[..., :-1], path[..., -1]
    if stacked:
        gx = np.asarray(output(states, u_vals), dtype=float).reshape(supply.shape + ports)
        u_vals = u_vals.reshape(u_vals.shape[:1] + ports)
    else:
        gx = np.stack([np.asarray(output(x, uv), dtype=float).reshape(batch + ports) for x, uv in zip(states, u_vals)])
    outputs = (supply / roots)[..., None] * gx

    # Losslessness is an algebraic identity of the wrapped field, so the
    # only way the books fail to balance is integration error; audit the
    # ledger of each augmented state [x_hat, x_E].
    for i in np.ndindex(batch):
        at = (slice(None),) + i
        ledger = energy_ledger(*(Trajectory(dt=h, values=v) for v in (path[at], u_vals, outputs[at])))
        residual = ledger.balance_residual()
        guard = (1e3 * h**4 * (len(u_vals) - 1) * max(1.0, float(np.abs(ledger.work_rate).max()))
                 + 1e-12 * float(np.abs(ledger.total_energy).max()))
        if residual > guard:
            raise FloatingPointError(
                f"energy audit failed: |dE - work| = {residual:.3g} exceeds {guard:.3g}; reduce dt"
            )
    return states, supply, outputs


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
        Its `field` and `output` receive the state as an (n,) array and
        the input as a (p,) array.
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
    paths = _wrapped_paths(ws.field, ws.output, ws.initial_state, ws.initial_supply, u_vals, u_mids, h)
    return tuple(Trajectory(dt=h, values=values) for values in paths)


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


def convergence_order(factory, energies, reference) -> ConvergenceFit:
    """Sup-norm error of factory(E0) against a reference, log-log fitted.

    `factory` maps an initial energy to a Trajectory (or plain array)
    shaped like `reference`.  The grid must span at least three decades,
    otherwise the fitted exponent is noise.  Points whose error has
    fallen to `_ERROR_FLOOR` = 1e-12 measure the integrator, not the
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
    keep = errors > _ERROR_FLOOR
    if int(keep.sum()) < 2:
        raise ValueError("fewer than two points above the error floor; nothing to fit")
    slope = float(np.polyfit(np.log10(grid[keep]), np.log10(errors[keep]), 1)[0])
    return ConvergenceFit(
        slope=slope,
        energies=grid,
        errors=errors,
        excluded=tuple(np.flatnonzero(~keep)),
    )
