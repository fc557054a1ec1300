"""Cold start of the program: import the CLI and load the bundled lexicon.

run.py times this script's whole run from outside as set-up; the two
in-process timings it prints feed the traced report.
"""

import json
import time

t0 = time.perf_counter()
import prosodika.cli  # noqa: E402,F401
from prosodika.syntagms import FunctionWordLexicon  # noqa: E402

t1 = time.perf_counter()
FunctionWordLexicon.default()
t2 = time.perf_counter()
print(json.dumps({"import_cli_s": t1 - t0, "lexicon_s": t2 - t1}))
