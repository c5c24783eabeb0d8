import pytest
import yaml
from hypothesis import strategies as st

import it2mabac.problem
from it2mabac import GeneralizedTrapezoid, IT2TrFN, aggregation, fuzzy, load_example_problem, pipeline, run


def finite(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def it2trfns(draw, lo=0.0, hi=10.0, signed_zeros=False):
    """A valid IT2TrFN with sorted endpoints and lower height <= upper height.

    With ``signed_zeros``, an endpoint may also be 0.0 or -0.0.
    """
    point = finite(lo, hi)
    if signed_zeros:
        point = st.one_of(st.sampled_from([0.0, -0.0]), point)
    upper = sorted(draw(st.lists(point, min_size=4, max_size=4)))
    lower = sorted(draw(st.lists(point, min_size=4, max_size=4)))
    h_upper = draw(finite(0.05, 1.0))
    fraction = draw(finite(0.05, 1.0))
    return IT2TrFN(
        GeneralizedTrapezoid(*upper, h_upper),
        GeneralizedTrapezoid(*lower, h_upper * fraction),
    )


def bits(v):
    """Upper a1-a4 and h, then lower a1-a4 and h, bit for bit (the sign of zero included)."""
    return [float(x).hex() for t in (v.upper, v.lower) for x in (*t.endpoints, t.h)]


@pytest.fixture(scope="session")
def example_problem():
    return load_example_problem()


@pytest.fixture(scope="session")
def example_trace(example_problem):
    return run(example_problem)


@pytest.fixture(params=["libyaml", "pure-python"])
def yaml_loader(request, monkeypatch):
    """Parse with the module's loader, or with PyYAML's pure-Python ``SafeLoader``.

    Without libyaml the module's loader is ``SafeLoader`` and both runs are alike.
    """
    if request.param == "pure-python":
        monkeypatch.setattr(it2mabac.problem, "_Loader", yaml.SafeLoader)
    return request.param


@pytest.fixture
def locate_calls(monkeypatch):
    """The checks the fault locator ``fuzzy._locate`` is called with, one per call.

    ``aggregation`` and ``pipeline`` import it by name, so it is counted in all three modules.
    """
    calls, locate = [], fuzzy._locate

    def counted(cells, check):
        calls.append(check)
        return locate(cells, check)

    for module in (fuzzy, aggregation, pipeline):
        monkeypatch.setattr(module, "_locate", counted)
    return calls
