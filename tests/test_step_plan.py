"""Horizon, step-count and checkpoint rules shared by the sector-transport
integrators."""

import math

import numpy as np
import pytest

from zenosim import (
    StepResolutionError,
    TimeDependentBundle,
    ValidationError,
    adiabatic,
    eig,
    intertwining_defect,
    propagate_td,
    required_steps,
    rotating_bundle,
    rotation_generator,
    snorm,
    three_level,
)


def bundle(coupling=10.0):
    m = three_level(1.0, coupling)
    return rotating_bundle(m.h.matrix, m.h_meas, rotation_generator(3, 2, 3, "phase"),
                           0.2, coupling)


CALLS = {
    "required_steps": required_steps,
    "propagate_td": lambda b, t: propagate_td(b, t, 400),
    "intertwining_defect": lambda b, t: intertwining_defect(b, t, [10.0], samples=5),
}


@pytest.mark.parametrize("name", CALLS)
@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
def test_every_integrator_rejects_a_bad_horizon(name, t):
    with pytest.raises(ValidationError, match="horizon must be finite and non-negative"):
        CALLS[name](bundle(), t)


@pytest.mark.parametrize("steps", [0, 2.5, None, "10"])
def test_explicit_step_count_is_required(steps):
    with pytest.raises(ValidationError, match="step count must be an integer >= 1"):
        propagate_td(bundle(), 1.0, steps)
    if steps is not None:
        with pytest.raises(ValidationError, match="step count must be an integer >= 1"):
            intertwining_defect(bundle(), 1.0, [10.0], samples=5, steps=steps)


@pytest.mark.parametrize("samples", [0, 2.5, -3])
def test_checkpoint_count_is_an_integer(samples):
    with pytest.raises(ValidationError, match="checkpoint count must be an integer >= 1"):
        intertwining_defect(bundle(), 1.0, [10.0], samples=samples)


def test_every_integrator_refuses_the_same_coarse_step():
    b = bundle(40.0)
    need = required_steps(b, 1.0)
    for call in (lambda: propagate_td(b, 1.0, need - 1),
                 lambda: intertwining_defect(b, 1.0, [40.0], samples=1, steps=need - 1)):
        with pytest.raises(StepResolutionError, match=f"need >= {need} steps") as info:
            call()
        assert info.value.timescale == "measurement"
    propagate_td(b, 1.0, need)


def test_zero_horizon_is_the_identity():
    assert required_steps(bundle(), 0.0) == 1
    assert np.array_equal(propagate_td(bundle(), 0.0, 3).matrix, np.eye(3))


def test_intertwining_defect_uses_the_propagator_of_propagate_td():
    b = bundle()
    steps = 2 * required_steps(b, 1.0)
    [report] = intertwining_defect(b, 1.0, [10.0], samples=1, steps=steps)
    u = propagate_td(b, 1.0, steps).matrix
    p0, p1 = (eig(b.h_meas(t)).projectors for t in (0.0, 1.0))
    assert report.max_defect == max(snorm(u @ start.matrix - end.matrix @ u)
                                    for start, end in zip(p0, p1))


# --------------------------------------------------------------------------
# one set of probe norms per K grid

GRID = [10.0, 40.0, 160.0]


def test_probe_times_are_evaluated_once_per_grid(monkeypatch):
    sampled, real = [], adiabatic._sampled
    monkeypatch.setattr(adiabatic, "_sampled",
                        lambda b, part, times: sampled.append((part, len(times)))
                        or real(b, part, times))
    norms, real_norms = [], adiabatic._probe_norms
    monkeypatch.setattr(adiabatic, "_probe_norms",
                        lambda *a: norms.append(1) or real_norms(*a))
    intertwining_defect(bundle(), 1.0, GRID, samples=5)
    assert norms == [1]
    # the nine probe times of h and h_meas, then the six checkpoints of h_meas,
    # then the integrator's chunks, each sampling h and h_meas at its midpoints
    assert sampled[:3] == [("h", 9), ("h_meas", 9), ("h_meas", 6)]
    chunks = sampled[3:]
    assert chunks and chunks[::2] == [("h", n) for _, n in chunks[1::2]]
    assert chunks[1::2] == [("h_meas", n) for _, n in chunks[::2]]


def test_grid_plans_are_the_per_coupling_plans():
    b = bundle()
    assert adiabatic._step_plan(b, 1.0, GRID, None, resolve=True) == \
        [required_steps(b.with_coupling(k), 1.0) for k in GRID]
    assert adiabatic._step_plan(b, 1.0, GRID, None, 7, resolve=True) == \
        [adiabatic._step_plan(b, 1.0, [k], None, 7, resolve=True)[0] for k in GRID]


def raised(call):
    with pytest.raises(ValidationError) as info:
        call()
    return type(info.value), str(info.value), getattr(info.value, "timescale", None)


def time_by_time(b, h_meas):
    return TimeDependentBundle(lambda t: b.h(t), h_meas, b.coupling)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", ["horizon", "nan probe", "overflowing probe", "ceiling",
                                  "coarse steps"])
def test_a_grid_raises_the_first_failing_couplings_error(case):
    b, t, grid, steps, first = bundle(), 1.0, GRID, None, GRID[0]
    if case == "horizon":
        t = math.nan
    elif case == "nan probe":       # first NaN probe at 0.625, a time no checkpoint has
        good = b
        b = time_by_time(good, lambda s: good.h_meas(s) * (math.nan if s > 0.6 else 1.0))
    elif case == "overflowing probe":       # rate * t overflows from t = 2.5 on
        m = three_level(1.0, 10.0)
        b, t = rotating_bundle(m.h.matrix, m.h_meas, rotation_generator(3, 2, 3, "phase"),
                               1e308, 10.0), 10.0
    elif case == "ceiling":
        grid, first = [10.0, 1e12, 1e13], 1e12
    else:
        steps, first = required_steps(b.with_coupling(GRID[0]), 1.0), GRID[1]
    got = raised(lambda: intertwining_defect(b, t, grid, samples=5, steps=steps))
    assert got == raised(lambda: intertwining_defect(b, t, [first], samples=5, steps=steps))
    assert got[1:] == {
        "horizon": ("horizon must be finite and non-negative", None),
        "nan probe": ("bundle h_meas has NaN or Inf entries at t = 0.625", None),
        "overflowing probe": ("bundle h_meas has NaN or Inf entries at t = 2.5", None),
        "ceiling": ("resolving the measurement timescale over t = 1 exceeds the "
                    "ceiling of 1000000 steps", "measurement"),
        "coarse steps": ("step 9.524e-03 does not resolve the measurement timescale "
                         "2.500e-03; need >= 401 steps", "measurement"),
    }[case]
