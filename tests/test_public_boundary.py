"""Public boundary: every public call returns a result or raises a ZenoError.

One table covers every callable in ``zenosim.__all__`` and the public
methods of its classes.  A row names the callable, valid keyword arguments
and the kind of each argument it checks; ``BAD`` lists the bad values of
each kind.  Each case passes one bad value of one argument, the others
valid, with every warning an error.  Callables, flags and records passed
as arguments (a bundle's ``h``, ``project_final``, a ``CoupledHamiltonian``)
have no kind, except a record whose dimension must match (a projector, a
state, a decomposition) and ``constant_bundle``'s only argument.
``test_the_table_covers_the_public_api`` fails on a public callable with no
row that is not in ``RECORDS``.
"""

import inspect
import math
import os
import warnings
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import pytest

import zenosim
from zenosim import (
    CoupledHamiltonian,
    DensityMatrix,
    FourLevelModel,
    Operator,
    Projector,
    TimeDependentBundle,
    ZenoError,
    as_operator,
    basis_projector,
    cavity,
    constant_bundle,
    coupling_matrix,
    decay_model,
    diag_part,
    dfs_extract,
    effective_rate,
    effective_rate_from_amplitude,
    eig,
    exact_propagator,
    expm,
    four_level,
    intertwining_defect,
    load_matrix,
    nonadiabatic_defect,
    nonselective_evolve,
    nonselective_limit,
    offblock_norm,
    perturbative_spectrum,
    projector_from_columns,
    propagate_td,
    pulsed_limit,
    pulsed_propagator,
    required_steps,
    rotating_bundle,
    rotation_generator,
    save_matrix,
    snorm,
    survival_amplitude,
    survival_probability,
    three_level,
    three_level_survival,
    zeno_propagator,
    zeno_sectors,
    zeno_time,
    zeno_time_fitted,
)

NAN, INF = math.nan, math.inf
NUMBER = {"bool": True, "str": "1", "none": None, "nan": NAN, "inf": INF, "-inf": -INF}
INTEGER = {"bool": True, "half": 2.5, "float": 2.0, "str": "3", "none": None}
MATRIX = {"str": "x", "none": None, "vector": np.ones(3), "stack": np.ones((2, 2, 2)),
          "nonsquare": [[1, 2]], "ragged": [[1], [1, 2]], "overflow": [[10 ** 400]]}
OPERATOR = {**MATRIX, "nan": np.full((3, 3), NAN), "inf": np.diag([INF, 0, 0])}

# the bad values of each argument kind; the models of the table have d = 3 (cavity: 27)
BAD = {
    "real": {**NUMBER, "complex": 1j},
    "nonneg": {**NUMBER, "complex": 1j, "negative": -1.0},
    "positive": {**NUMBER, "complex": 1j, "zero": 0.0, "negative": -1.0},
    "time": {**NUMBER, "complex-nan": complex(0, NAN), "complex-inf": complex(INF, 1)},
    "tol": {"bool": True, "str": "1e-3", "nan": NAN, "inf": INF, "negative": -1.0, "complex": 1j},
    "count": {**INTEGER, "zero": 0, "negative": -1},
    "count2": {**INTEGER, "zero": 0, "one": 1},
    "rank": {**INTEGER, "negative": -1},
    "index": {**INTEGER, "negative": -1, "past": 3},
    "order": {**INTEGER, "zero": 0, "three": 3},
    "level": {**INTEGER, "zero": 0, "past": 4},
    "excitation": {**INTEGER, "negative": -1, "absent": 99},
    "k_grid": {"empty": [], "bool": [True], "str": ["1"], "nan": [NAN], "inf": [INF],
               "negative": [-1.0]},
    "matrix": MATRIX,
    "matrix_d": {**MATRIX, "dim2": np.eye(2)},
    "operator": OPERATOR,
    "operator_d": {**OPERATOR, "dim2": np.eye(2)},
    "columns": {"str": "x", "none": None, "stack": np.ones((3, 1, 1)), "ragged": [[1], [1, 2]],
                "nan": [NAN, 1, 0], "dependent": [[1, 1], [0, 0], [0, 0]]},
    "vector": {"str": "x", "none": None, "matrix": np.eye(3), "nan": [NAN, 1], "zero": [0, 0]},
    "vector_d": {"str": "x", "none": None, "matrix": np.eye(3), "dim2": [1, 0],
                 "nan": [NAN, 0, 0], "unnormalized": [2, 0, 0]},
    "projector_d": {"dim2": basis_projector(2, 0)},
    "state_d": {"dim2": DensityMatrix.pure([1, 0])},
    "sectors_d": {"dim2": eig(np.diag([0.0, 1.0]))},
    "label": {"absent": (9, 0, 0), "short": (0, 0), "str": "x", "int": 5},
    "rotation": {"unknown": "spin", "none": None},
    "path": {"none": None, "missing": "no/such/dir/m.txt"},
    "coupled": {"str": "x", "none": None},
}


def bad_values(kind: str) -> dict:
    """The bad values of ``kind``; a trailing ``?`` marks an optional argument, for
    which None is valid."""
    values = BAD[kind.rstrip("?")]
    return {k: v for k, v in values.items() if v is not None} if kind.endswith("?") else values


HK = three_level(1.0, 2.0)
H = HK.total()
P = basis_projector(3, 0)
RHO = DensityMatrix.pure([1, 0, 0])
SECTORS = zeno_sectors(HK)
EXPANSION = perturbative_spectrum(HK)
BUNDLE = constant_bundle(HK)
CAVITY = cavity(1.0, 1.0)
MATRIX_FILE = Path(__file__).parent / "fixtures" / "three_level_hmeas.txt"


class Row(NamedTuple):
    name: str                   # as the meta-test names it: "expm", "DensityMatrix.pure"
    call: Callable
    args: dict                  # valid keyword arguments
    kinds: dict                 # argument -> kind in BAD


TABLE = [
    # operators
    Row("Operator", Operator, dict(matrix=H.matrix, hermitian=True), dict(matrix="operator")),
    Row("Projector", Projector, dict(matrix=P.matrix, rank=1),
        dict(matrix="operator", rank="rank")),
    Row("DensityMatrix", DensityMatrix, dict(matrix=RHO.matrix), dict(matrix="operator")),
    Row("DensityMatrix.pure", DensityMatrix.pure, dict(state=[1, 0, 0]), dict(state="vector")),
    Row("DensityMatrix.population", RHO.population, dict(projector=P),
        dict(projector="projector_d")),
    Row("as_operator", as_operator, dict(a=H.matrix), dict(a="operator")),
    Row("basis_projector", lambda dim, index: basis_projector(dim, index), dict(dim=3, index=0),
        dict(dim="count", index="index")),
    Row("eig", eig, dict(a=HK.h_meas, cluster_tol=None), dict(a="operator", cluster_tol="tol")),
    Row("expm", expm, dict(a=H, t=0.1), dict(a="operator", t="time")),
    Row("load_matrix", load_matrix, dict(path=MATRIX_FILE), dict(path="path")),
    Row("save_matrix", save_matrix, dict(path=os.devnull, a=H), dict(path="path", a="matrix")),
    Row("snorm", snorm, dict(a=H.matrix), dict(a="matrix")),
    Row("offblock_norm", offblock_norm, dict(a=H.matrix, sectors=SECTORS),
        dict(a="matrix_d", sectors="sectors_d")),
    Row("projector_from_columns", projector_from_columns, dict(columns=[1, 0, 0]),
        dict(columns="columns")),
    # pulsed
    Row("pulsed_propagator", pulsed_propagator, dict(h=H, p=P, n=4, t=0.1),
        dict(h="operator_d", p="projector_d", n="count", t="nonneg")),
    Row("pulsed_limit", pulsed_limit, dict(h=H, p=P, t=0.1),
        dict(h="operator_d", p="projector_d", t="time")),
    Row("survival_probability", survival_probability, dict(rho0=RHO, v=expm(H, 0.1), p=P),
        dict(rho0="state_d", v="matrix_d", p="projector_d")),
    Row("survival_amplitude", survival_amplitude, dict(h=H, a=[1, 0, 0], tau=0.1),
        dict(h="operator_d", a="vector_d", tau="time")),
    Row("effective_rate", effective_rate, dict(h=H, a=[1, 0, 0], tau=0.1),
        dict(h="operator_d", a="vector_d", tau="positive")),
    Row("effective_rate_from_amplitude", effective_rate_from_amplitude,
        dict(amplitude=lambda tau: 0.9, tau=0.1), dict(tau="positive")),
    Row("zeno_time", zeno_time, dict(h=H, a=[1, 0, 0]), dict(h="operator_d", a="vector_d")),
    Row("zeno_time_fitted", zeno_time_fitted, dict(h=H, a=[1, 0, 0], tau0=None, points=3),
        dict(h="operator_d", a="vector_d", tau0="positive?", points="count2")),
    Row("nonselective_evolve", nonselective_evolve,
        dict(h=H, sectors=SECTORS, n=4, t=0.1, rho0=RHO),
        dict(h="operator_d", sectors="sectors_d", n="count", t="nonneg", rho0="state_d")),
    Row("nonselective_limit", nonselective_limit, dict(h=H, sectors=SECTORS, t=0.1, rho0=RHO),
        dict(h="operator_d", sectors="sectors_d", t="time", rho0="state_d")),
    # continuous
    Row("CoupledHamiltonian", CoupledHamiltonian, dict(h=HK.h, h_meas=HK.h_meas, coupling=2.0),
        dict(h="operator_d", h_meas="operator_d", coupling="nonneg")),
    Row("CoupledHamiltonian.with_coupling", HK.with_coupling, dict(coupling=3.0),
        dict(coupling="nonneg")),
    Row("diag_part", diag_part, dict(h=HK.h, sectors=SECTORS),
        dict(h="operator_d", sectors="sectors_d")),
    Row("exact_propagator", exact_propagator, dict(hk=HK, t=0.1), dict(t="time")),
    Row("zeno_propagator", zeno_propagator, dict(hk=HK, t=0.1, sectors=SECTORS),
        dict(t="time", sectors="sectors_d")),
    Row("nonadiabatic_defect", nonadiabatic_defect, dict(hk=HK, t=0.1, sectors=SECTORS),
        dict(t="time", sectors="sectors_d")),
    Row("perturbative_spectrum", perturbative_spectrum, dict(hk=HK, order=2, sectors=SECTORS),
        dict(order="order", sectors="sectors_d")),
    Row("zeno_sectors", zeno_sectors, dict(hk=HK, cluster_tol=None), dict(cluster_tol="tol")),
    Row("PerturbativeExpansion.reduced_resolvent", EXPANSION.reduced_resolvent, dict(n=0),
        dict(n="index")),
    Row("PerturbativeExpansion.predicted_eigenvalues", EXPANSION.predicted_eigenvalues,
        dict(lam=0.1), dict(lam="real")),
    Row("PerturbativeExpansion.generator", EXPANSION.generator, dict(lam=0.1), dict(lam="real")),
    Row("PerturbativeBranch.eigenvalue", EXPANSION.branches[0].eigenvalue,
        dict(lam=0.1, order=2), dict(lam="real")),
    # adiabatic
    Row("TimeDependentBundle", TimeDependentBundle,
        dict(h=lambda t: HK.h.matrix, h_meas=lambda t: HK.h_meas.matrix, coupling=1.0),
        dict(coupling="nonneg")),
    Row("TimeDependentBundle.with_coupling", BUNDLE.with_coupling, dict(coupling=1.0),
        dict(coupling="nonneg")),
    Row("TimeDependentBundle.total", BUNDLE.total, dict(t=0.1), dict(t="real")),
    Row("constant_bundle", constant_bundle, dict(hk=HK), dict(hk="coupled")),
    Row("rotating_bundle", rotating_bundle,
        dict(h0=HK.h, h_meas0=HK.h_meas, generator=rotation_generator(3, 2, 3), rate=0.2,
             coupling=1.0),
        dict(h0="operator_d", h_meas0="operator_d", generator="operator_d", rate="real",
             coupling="nonneg")),
    Row("required_steps", required_steps, dict(bundle=BUNDLE, t=0.1), dict(t="nonneg")),
    Row("propagate_td", propagate_td, dict(bundle=BUNDLE, t=0.01, steps=10),
        dict(t="nonneg", steps="count")),
    Row("intertwining_defect", intertwining_defect,
        dict(bundle=BUNDLE, t=0.01, k_grid=[1.0], samples=2, steps=None),
        dict(t="nonneg", k_grid="k_grid", samples="count", steps="count?")),
    # models
    Row("three_level", three_level, dict(omega=1.0, coupling=2.0),
        dict(omega="nonneg", coupling="nonneg")),
    Row("three_level_survival", three_level_survival, dict(omega=1.0, coupling=2.0, t=0.5),
        dict(omega="nonneg", coupling="nonneg")),
    Row("four_level", four_level, dict(omega=1.0, k_inner=2.0, k_outer=3.0),
        dict(omega="nonneg", k_inner="nonneg", k_outer="nonneg")),
    Row("FourLevelModel", FourLevelModel, dict(omega=1.0, k_inner=2.0, k_outer=3.0),
        dict(omega="nonneg", k_inner="nonneg", k_outer="nonneg")),
    Row("cavity", cavity, dict(g=1.0, kappa=1.0, n_max=2),
        dict(g="nonneg", kappa="nonneg", n_max="count2")),
    Row("decay_model", decay_model, dict(tau_z=1.0, gamma=1.0, coupling=1.0),
        dict(tau_z="positive", gamma="positive", coupling="nonneg")),
    Row("dfs_extract", dfs_extract, dict(hk=HK, cluster_tol=None), dict(cluster_tol="tol")),
    Row("coupling_matrix", coupling_matrix, dict(dim=3, i=1, j=2),
        dict(dim="count", i="level", j="level")),
    Row("rotation_generator", rotation_generator, dict(dim=3, i=2, j=3, kind="phase"),
        dict(dim="count", i="level", j="level", kind="rotation")),
    Row("ExcitationSectors.index", CAVITY.sectors.index, dict(label=(0, 1, 2)),
        dict(label="label")),
    Row("ExcitationSectors.sector_labels", CAVITY.sectors.sector_labels, dict(n=1),
        dict(n="excitation")),
    Row("ExcitationSectors.restriction", CAVITY.sectors.restriction,
        dict(matrix=CAVITY.hk.h_meas, n=1), dict(matrix="matrix_d", n="excitation")),
]

# types whose constructors hold results rather than check arguments; their public
# methods that take arguments still need a row
RECORDS = {"Sector", "SectorDecomposition", "TransportReport", "EffectiveRate", "CavityModel",
           "ExcitationSectors", "PerturbativeExpansion", "ZenoError", "ValidationError",
           "NumericalError", "AmbiguousSpectrumError", "SectorTrackingError",
           "StepResolutionError"}

CASES = [pytest.param(row, arg, value, id=f"{row.name}-{arg}-{label}")
         for row in TABLE for arg, kind in row.kinds.items()
         for label, value in bad_values(kind).items()]


@pytest.mark.parametrize("row, arg, value", CASES)
def test_a_bad_argument_raises_a_zeno_error(row, arg, value):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ZenoError):
            row.call(**{**row.args, arg: value})


@pytest.mark.parametrize("row", TABLE, ids=[row.name for row in TABLE])
def test_the_valid_call_returns(row):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row.call(**row.args)


def _takes_arguments(member) -> bool:
    func = member.__func__ if isinstance(member, (classmethod, staticmethod)) else member
    if not inspect.isfunction(func):
        return False
    skip = 0 if isinstance(member, staticmethod) else 1       # self or cls
    return len(inspect.signature(func).parameters) > skip


def public_callables() -> set[str]:
    """Every function in ``zenosim.__all__``, every class not in ``RECORDS`` (its
    constructor), and every public method that takes an argument."""
    names = set()
    for name in zenosim.__all__:
        obj = getattr(zenosim, name)
        if not isinstance(obj, type):
            names.add(name)
            continue
        if name not in RECORDS:
            names.add(name)
        names |= {f"{name}.{attr}" for attr, member in vars(obj).items()
                  if not attr.startswith("_") and _takes_arguments(member)}
    return names


def test_the_table_covers_the_public_api():
    assert all(isinstance(getattr(zenosim, name), type) for name in RECORDS)
    assert public_callables() - {row.name for row in TABLE} == set()
    assert all(row.kinds for row in TABLE)
    for row in TABLE:
        assert set(row.kinds) <= set(row.args), row.name
