"""Exit 1 if a tier-1 run failed anything besides acceptance criteria 6 and 8.

Criteria 6 and 8 fail by design (see the README).  Give it the JUnit XML
that ``pytest --junitxml`` wrote:

    python tests/tier1_verdict.py tier1.xml

pytest does not collect this file, since its name does not start with
``test_``.
"""

import sys
import xml.etree.ElementTree as ET

EXPECTED = {"test_criterion_6_adiabatic_peak_rabi_window",
            "test_criterion_8_universal_first_order_compensation"}

failed = {case.get("name") for case in ET.parse(sys.argv[1]).iter("testcase")
          if case.find("failure") is not None or case.find("error") is not None}
print("failed:", ", ".join(sorted(failed)) or "none")
sys.exit(0 if failed <= EXPECTED else 1)
