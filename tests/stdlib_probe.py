"""Lists the odd usp n below 2^64, the even sigma hits below 10^4 and every
hit that a search of all four classes lists below 10^4 through uspkit.lists;
evaluates every bound certificate, the q scan at 100 and the q = 13 chain
through uspkit.bounds; and runs every lemma check of uspkit.structure at its
default range.  numpy is unimportable and uspkit/__init__.py never runs.
Prints the results with the uspkit modules loaded as one JSON line:
uspkit.arith, uspkit.lists, uspkit.bounds and uspkit.structure run on the
standard library alone.

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

from uspkit import bounds, lists, structure  # noqa: E402

scan = bounds.q_bound_scan(100)
# lemma 5.1 takes its q: it is checked at each q that the scan leaves
lemmas = {i: check().ok for i, check in structure.LEMMA_CHECKS.items() if i != "5.1"}
lemmas["5.1"] = all(structure.check_lemma_51(q).ok for q in structure.LEMMA_51_QS)
print(json.dumps({
    "odd_usp": lists.odd_usp(1, 2**64),
    "even_sigma": lists.even_sigma(1, 10**4),
    "listed": lists.listed(("usp", "unitary_perfect", "super_perfect", "perfect"), "all", 1, 10**4),
    "verdicts": {rec.id: rec.verdict.value for rec in bounds.evaluate_all()},
    "qscan": [sorted(e.q for e in scan if e.f2 == f2 and e.satisfies) for f2 in (1, 2)],
    "case13": bounds.case_13_elimination().ok,
    "lemmas": lemmas,
    "modules": sorted(m for m in sys.modules if m.split(".")[0] == "uspkit"),
}))
