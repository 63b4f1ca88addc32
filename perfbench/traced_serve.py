"""Run ``repro.cli`` with the layer ledger installed (the traced server).

Usage: ``python traced_serve.py DUMP_DIR serve ...`` -- the arguments after
``DUMP_DIR`` are passed to ``repro.cli`` unchanged.  The model the CLI loads
is proxied, every enforcer it builds gets the timing oracle wrapper, and
the class-level patches of :meth:`ledger.Ledger.patched` are active for the
life of the process.  Worker processes are forked from it and inherit all
of this.

On SIGUSR1 a process writes its counters to
``DUMP_DIR/ledger.<pid>.<n>.json`` (``n`` counts that process's dumps), so
the benchmark can read every process's ledger at the start and the end of
its measured window.
"""

import json
import os
import signal
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import repro.cli as cli  # noqa: E402

from ledger import Ledger  # noqa: E402


def main(argv):
    dump_dir = Path(argv[0])
    ledger = Ledger()
    dumps = {"pid": None, "n": 0}

    def dump(_signum, _frame):
        pid = os.getpid()
        if dumps["pid"] != pid:  # a forked worker starts its own numbering
            dumps["pid"], dumps["n"] = pid, 0
        target = dump_dir / f"ledger.{pid}.{dumps['n']}.json"
        partial = target.with_suffix(".tmp")
        partial.write_text(json.dumps(ledger.snapshot()))
        partial.rename(target)
        dumps["n"] += 1

    load_ngram = cli.load_ngram
    enforcer_class = cli.JitEnforcer

    def traced_load_ngram(path):
        return ledger.wrap_model(load_ngram(path))

    def traced_enforcer(*args, **kwargs):
        kwargs.setdefault("oracle_wrapper", ledger.wrap_oracle)
        return enforcer_class(*args, **kwargs)

    cli.load_ngram = traced_load_ngram
    cli.JitEnforcer = traced_enforcer
    signal.signal(signal.SIGUSR1, dump)
    with ledger.patched():
        return cli.main(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
