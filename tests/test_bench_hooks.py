"""The benchmark's tracing hooks must resolve every name they wrap."""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))

import tracing  # noqa: E402


def test_tracing_install_and_uninstall_restore_every_name():
    saved = tracing.install(tracing.Tracer())
    try:
        assert len(saved) == len(tracing.WRAPS)
    finally:
        tracing.uninstall(saved)
    for owner, leaf, original in saved:
        current = owner.__dict__[leaf] if isinstance(owner, type) else getattr(owner, leaf)
        assert current is original, (owner, leaf)
