"""Cold-start guard: importing the package stays off ``scipy.signal``.

``scipy.signal`` drags in ``scipy.stats`` and most of scipy, which was
over half of every fresh interpreter's start-up.  The package uses only
``scipy.fft`` and ``scipy.ndimage``; this test keeps it that way.
"""

import subprocess
import sys

from repro.campaign.fabric.selfcheck import _subprocess_env

_PROBE = """
import sys
import repro
import repro.campaign.runner
import repro.cli
print(" ".join(m for m in ("scipy.signal", "scipy.stats") if m in sys.modules))
"""


def test_package_import_leaves_out_scipy_signal_and_stats():
    result = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True,
        text=True,
        env=_subprocess_env(),
        check=True,
    )
    assert result.stdout.split() == []
