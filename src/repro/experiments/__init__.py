"""Claim-reproduction experiments E1–E11 (see DESIGN.md §3).

Each module is runnable (``python -m repro.experiments.eN_...``) and
exposes ``run_eN(*, ...) -> ENResult`` with a ``report()`` table; the
claim tests in ``tests/integration/test_experiments.py`` call the same
drivers.  Importing this package registers every experiment in
:mod:`repro.experiments.registry` (the ``@register`` decorators run),
which is what drives ``python -m repro.experiments --list``.
"""

from repro.experiments.registry import (
    ExperimentConfig,
    ExperimentSpec,
    all_specs,
    experiment_names,
    get_spec,
    register,
)
from repro.experiments.e1_redundancy import E1Result, run_e1
from repro.experiments.e2_latency import E2Result, run_e2
from repro.experiments.e3_publisher_load import E3Result, run_e3
from repro.experiments.e4_overload import E4Result, run_e4
from repro.experiments.e5_bloom import E5Result, run_e5, run_e5_analytic, run_e5_system
from repro.experiments.e6_subscription import E6Result, run_e6
from repro.experiments.e7_redundancy import E7Result, run_e7
from repro.experiments.e8_branching import E8Result, run_e8
from repro.experiments.e9_queues import E9Result, run_e9
from repro.experiments.e10_scoped import E10Result, run_e10
from repro.experiments.e11_partition import E11Result, run_e11
from repro.experiments.e12_routing import E12Result, run_e12

__all__ = [
    "ExperimentConfig",
    "ExperimentSpec",
    "all_specs",
    "experiment_names",
    "get_spec",
    "register",
    "E1Result",
    "E2Result",
    "E3Result",
    "E4Result",
    "E5Result",
    "E6Result",
    "E7Result",
    "E8Result",
    "E9Result",
    "E10Result",
    "E11Result",
    "E12Result",
    "run_e1",
    "run_e2",
    "run_e3",
    "run_e4",
    "run_e5",
    "run_e5_analytic",
    "run_e5_system",
    "run_e6",
    "run_e7",
    "run_e8",
    "run_e9",
    "run_e10",
    "run_e11",
    "run_e12",
]
