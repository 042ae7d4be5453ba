"""Regenerate ``oracle.json``: expected-output digests for the generated
programs the ledger executes.

The digests come from the independent bytecode path (``repro.jvm``:
classfile code generation plus :class:`BytecodeInterpreter`), never from
the SafeTSA interpreter the ledger measures.  Programs whose bytecode
run traps are skipped, so every op that executes a listed program has a
clean expected outcome.

    python3 perfledger/make_oracle.py            # rewrites oracle.json

The file is checked in; the ledger only reads it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

#: generated programs per unit set; install and publish both ship it
UNITS = 32


def expected_stdout(source: str, main_class: str):
    """The bytecode path's stdout, or None when the program traps."""
    from repro.driver import CompilationSession
    from repro.jvm.interp import BytecodeInterpreter
    session = CompilationSession(cache=False)
    classes = session.compile_to_classfiles(source)
    _unit, world = session.frontend(source)
    result = BytecodeInterpreter(classes, world).run_main(main_class)
    return None if result.exception is not None else result.stdout


def main() -> int:
    from repro.fuzz.gen import generate_seeded
    units = []
    seed = 0
    while len(units) < UNITS:
        program = generate_seeded(seed)
        stdout = expected_stdout(program.source, program.main_class)
        if stdout is not None:
            units.append({"seed": seed, "stdout_sha256": hashlib.sha256(
                stdout.encode("utf-8")).hexdigest()})
        seed += 1
    document = {"generator": "repro.fuzz.gen.generate_seeded",
                "oracle": "repro.jvm.interp.BytecodeInterpreter",
                "generated": units}
    (HERE / "oracle.json").write_text(json.dumps(document, indent=1)
                                      + "\n")
    print(f"oracle.json: {len(units)} programs from seeds 0..{seed - 1}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
