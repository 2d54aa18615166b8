import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture(scope="session")
def spine_bundle():
    """Spine complex, presentation and certificate, built once per session."""
    from coxcert.presentations import spine_certificate, spine_complex, spine_presentation

    complex_, _ = spine_complex()
    return {
        "complex": complex_,
        "presentation": spine_presentation(),
        "certificate": spine_certificate(),
    }


@pytest.fixture(scope="session")
def spine_ball(spine_bundle):
    """Radius-1 Davis ball of the spine nerve's right-angled group."""
    from coxcert.coxeter import racg_from_flag
    from coxcert.davis import davis_ball

    system = racg_from_flag(spine_bundle["complex"])
    return davis_ball(system, 1)
