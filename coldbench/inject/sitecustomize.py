"""Start-up hook for the daemon and party processes of a traced run.

Python imports ``sitecustomize`` at interpreter start when it is on
``sys.path``.  For a traced run the benchmark puts this directory on
``PYTHONPATH``, so the daemon and party processes it starts wrap the
layer functions listed in ``coldbench/layers.py`` before the protocol
code runs, and write their layer, powmod-memo and registry totals to
``$COLDBENCH_LAYER_DIR`` when they exit.
"""

import atexit
import os
import sys

_directory = os.environ.get("COLDBENCH_LAYER_DIR")
if _directory:
    sys.path.insert(0, os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    import layers

    layers.install()
    atexit.register(layers.write_process_dump, _directory)
