import importlib.util
import sys
from pathlib import Path

import pytest

from quenchfront import acceptance, continuation

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    """perfbench/<name>.py as the module perfbench_<name>, read from its
    file; its imports of perfbench's other modules need PERFBENCH on sys.path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def hm_profile():
    """Converged front at c = 0 (the best-conditioned anchor)."""
    return continuation.solve_front(0.0)


@pytest.fixture(scope="session")
def accept_ctx():
    """Shared acceptance context; branches are computed once per session."""
    return acceptance.AcceptanceContext()
