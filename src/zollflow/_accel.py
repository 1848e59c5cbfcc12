"""Name of the numeric backend.

The kernels in ``_kernels`` have a single numpy implementation.
``backend_name`` remains because the benchmark harness (``perfbench/run.py``)
records it in the environment line of every run.
"""


def backend_name():
    return "numpy"
