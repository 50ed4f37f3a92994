import numpy as np
import pytest
from hypothesis import settings

from grflow import algebra as alg
from grflow import metric as met

# The same commit draws the same examples on every machine and every run.
settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")


@pytest.fixture(scope="session")
def su2_double():
    return alg.cotangent_double(alg.su2_structure())


@pytest.fixture(scope="session")
def complex_double():
    return alg.complex_double_su2(1.0)


@pytest.fixture(scope="session")
def graph_metric_123(su2_double):
    return met.metric_from_graph(su2_double, np.diag([1.0, 2.0, 3.0]))


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture(scope="session")
def stopped_short():
    """Asserts that a returned run trace says why it stopped short of T (``note`` in ``aborted``) and holds
    whole rows: at least one, and every column as long as ``t``."""
    def check(trace, note):
        assert trace.aborted is not None and note in trace.aborted
        columns = [value for value in vars(trace).values() if isinstance(value, list)]
        assert len(trace.t) >= 1 and {len(column) for column in columns} == {len(trace.t)}

    return check
