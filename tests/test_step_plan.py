"""Horizon, step-count and checkpoint rules shared by the sector-transport
integrators."""

import math

import numpy as np
import pytest

from zenosim import (
    StepResolutionError,
    ValidationError,
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
