import contextlib
import pathlib
import sys

import pytest
from hypothesis import HealthCheck, settings

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

settings.register_profile(
    "det",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("det")


@pytest.fixture(params=["setprofile", "settrace"])
def traced(request):
    """A context manager that runs its body under a do-nothing profile or
    trace hook, as cProfile and debuggers install, then puts back the hook
    that was there."""
    install = getattr(sys, request.param)
    current = getattr(sys, request.param.replace("set", "get"))

    @contextlib.contextmanager
    def run():
        old = current()
        install(lambda frame, event, arg: None)
        try:
            yield
        finally:
            install(old)

    return run
