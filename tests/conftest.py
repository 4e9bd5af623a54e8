import os

import pytest

from gkasami import build_family, family_params, make_field
from gkasami.families import FamilyKind


def pytest_collection_modifyitems(config, items):
    """Tests marked slow run only with GKASAMI_SLOW=1."""
    if os.environ.get("GKASAMI_SLOW") == "1":
        return
    skip = pytest.mark.skip(reason="set GKASAMI_SLOW=1")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def ctx4():
    return make_field(4)


@pytest.fixture(scope="session")
def ctx6():
    return make_field(6)


@pytest.fixture(scope="session")
def ctx8():
    return make_field(8)


@pytest.fixture(scope="session")
def family4(ctx4):
    return build_family(family_params(ctx4, FamilyKind.GENERALIZED, 1))


@pytest.fixture(scope="session")
def family6(ctx6):
    return build_family(family_params(ctx6, FamilyKind.GENERALIZED, 2))
