import pytest


@pytest.fixture(scope="session")
def flagship():
    """(h, class list to det 40, Ikeda coefficient table) for n=4, k=8."""
    from kmlift.liftkm import build_coeff_table, build_plus_eigenform
    from kmlift.quadforms import enumerate_classes
    h = build_plus_eigenform(8, 4, prec=260)
    cl = enumerate_classes(4, 40)
    table = build_coeff_table(cl, h, 8, 4)
    return h, cl, table


@pytest.fixture(scope="session")
def classlist16():
    from kmlift.quadforms import enumerate_classes
    return enumerate_classes(4, 16)


@pytest.fixture(autouse=True)
def run_budget_restored():
    """Fail a test that leaves the charsums run budget at anything but
    DEFAULT_BUDGET, and restore it, so the one process-wide value never
    carries from one test into the next."""
    from kmlift import charsums
    yield
    left = charsums._budget
    charsums._budget = charsums.DEFAULT_BUDGET
    if left != charsums.DEFAULT_BUDGET:
        pytest.fail(f"the test left the run budget at {left}")
