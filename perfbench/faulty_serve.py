"""``python -m repro serve`` with a planted engine fault.

Every ``FAULT_EVERY``-th ``Engine.predict_many`` call raises, so the
server answers 500 for that micro-batch.  The benchmark's own tests start
this in place of the real server to prove that the ``serve`` accounting
counts server errors as failures.
"""

import sys

from repro.cli import main

from perfbench.common import plant_predict_fault

if __name__ == "__main__":
    plant_predict_fault()
    sys.exit(main(sys.argv[1:]))
