import numpy as np
import pytest
from hypothesis import settings

from grflow import algebra as alg
from grflow import checks
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


@pytest.fixture(scope="session")
def preset_metrics():
    """(label, algebra, G) for each check preset: a random strictly positive G, and a G that is not strictly
    positive (eta G indefinite from a random V+ of half rank; -Id on so(3), where ranks 1 and 2 are
    forbidden). On the doubles neither G is symmetric."""
    out = []
    for name, make in checks.PRESETS:
        a = make()
        mixed = -np.eye(3) if a.n == 3 else met.metric_from_subspace(
            a, np.random.default_rng(3).standard_normal((a.n, a.n // 2))).G
        assert not met.validate_metric(a, mixed).strictly_positive
        pairing = np.linalg.eigvalsh(a.eta @ mixed + (a.eta @ mixed).T)
        assert a.n == 3 or pairing[0] < 0 < pairing[-1]
        out += [(f"{name}/positive", a, met.random_strictly_positive_metric(a, 11).G), (f"{name}/mixed", a, mixed)]
    return out


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
