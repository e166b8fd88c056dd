import pytest

from bfre import ProblemInstance, build_tables, example_path, validate
from bfre.cli import load_problem


@pytest.fixture(scope="session")
def example():
    """The bundled 10x10 Yager(p=2) instance."""
    return load_problem(example_path())


@pytest.fixture(scope="session")
def example_tables(example):
    return build_tables(example)


def make_instance(a_plus, a_minus, b, c=None, family="lukasiewicz", param=None):
    n = len(a_plus[0])
    return ProblemInstance(a_plus, a_minus, b, c if c is not None else [1.0] * n,
                           validate(family, param))
