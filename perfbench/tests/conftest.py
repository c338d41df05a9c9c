import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

# the tests import qdirac from this checkout's src/, as the benchmark does
CLI = run.import_cli()


@pytest.fixture(scope="session")
def cli_module():
    return CLI
