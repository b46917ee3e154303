"""Lists the odd usp n below 2^64, the even sigma hits below 10^4 and every
hit that a search of all four classes lists below 10^4 through uspkit.lists,
with numpy unimportable and uspkit/__init__.py never run, and prints them
with the uspkit modules loaded as one JSON line: uspkit.arith and
uspkit.lists run on the standard library alone.

    PYTHONPATH=src python tests/stdlib_probe.py
"""

import json
import sys
import types
from importlib.machinery import PathFinder

sys.modules["numpy"] = None  # any import of numpy raises ImportError
# a bare package object, so that uspkit/__init__.py, which loads every
# layer, does not run
package = types.ModuleType("uspkit")
package.__path__ = PathFinder.find_spec("uspkit").submodule_search_locations
sys.modules["uspkit"] = package

from uspkit import lists  # noqa: E402

print(json.dumps({
    "odd_usp": lists.odd_usp(1, 2**64),
    "even_sigma": lists.even_sigma(1, 10**4),
    "listed": lists.listed(("usp", "unitary_perfect", "super_perfect", "perfect"), "all", 1, 10**4),
    "modules": sorted(m for m in sys.modules if m.split(".")[0] == "uspkit"),
}))
