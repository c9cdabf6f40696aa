import pytest

from taurank import fixtures, reps


@pytest.fixture(scope="session")
def alg_a():
    return fixtures.load_fixture("ALG-A")


@pytest.fixture(scope="session")
def alg_b():
    return fixtures.load_fixture("ALG-B")


@pytest.fixture(scope="session")
def alg_b0():
    return fixtures.load_fixture("ALG-B0")


@pytest.fixture(scope="session")
def alg_c():
    return fixtures.load_fixture("ALG-C")


@pytest.fixture(scope="session")
def alg_k():
    return fixtures.load_fixture("ALG-K")


@pytest.fixture(scope="session")
def all_fixture_algebras():
    return {name: fixtures.load_fixture(name) for name in fixtures.FIXTURE_NAMES}


@pytest.fixture(autouse=True)
def empty_analysis_cache():
    """Each test starts from an empty analysis cache: the fixture algebras
    are shared by the session, so an equal module analysed by an earlier
    test would otherwise be read from its entry."""
    reps._analyses.set(None)
