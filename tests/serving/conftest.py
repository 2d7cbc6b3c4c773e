"""Shared serving-test fixtures (the builders live in ``oracle.py``)."""

import pytest

from oracle import QAM16


@pytest.fixture(scope="session")
def qam16():
    return QAM16
