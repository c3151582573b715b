"""Tabular binary classification: boosted trees + embedding/cross/deep net + convex blend.

The library is its modules (`tabfusion.cli`, `tabfusion.dataset`, `tabfusion.gbdt`,
`tabfusion.xdeepfm`, ...): import each by name. Importing the package itself loads none of them.
"""

import os
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")  # before NumPy loads: `run` fits the GBDT on the other core
