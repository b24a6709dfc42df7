"""Set-up probe: import numpy and relayfl, validate one config, print ``ready``.

run.py times this process from its start to the ``ready`` line:
    python3 perfbench/setup_probe.py CONFIG
"""

import sys

import numpy  # noqa: F401

import relayfl  # noqa: F401
from relayfl import cli, experiment  # noqa: F401

experiment.load_config(sys.argv[1])
print("ready", flush=True)
