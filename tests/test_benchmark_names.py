"""The package names that the benchmark's tracer and workloads call.

perfbench/tracing.py wraps every (module, attribute path) of its LAYERS, and
the workloads call generator.explicit_solution positionally.  A name moved
or renamed in the package otherwise breaks only a traced benchmark run.
tracing.py is loaded by path; loading it runs nothing but its definitions.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from agedpop import MarkedConfiguration, generator

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _traced_layers():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_every_traced_layer_resolves():
    for name, module_name, attr in _traced_layers():
        owner = importlib.import_module(module_name)
        if "." in attr:
            # the tracer wraps a method in the dict of the class that names it
            cls_name, method = attr.split(".")
            owner = getattr(owner, cls_name)
            assert method in owner.__dict__, name
            continue
        assert callable(getattr(owner, attr, None)), name


def test_explicit_solution_takes_the_benchmark_arguments(theta_two, habitat_1d, const_model):
    config = MarkedConfiguration(np.array([[0.4], [0.7]]), np.array([0.5, 1.2]))
    value = generator.explicit_solution(theta_two, 0.0, 0.8, config, habitat_1d, const_model)
    assert 0.0 < value <= 1.0
