#!/usr/bin/env python
"""Record-once / simulate-many: the paper's trace methodology.

SniperSim recorded each browsing session once and replayed it across
machine configurations. This example does the same: generate a session,
export it to the compact ``.espt`` binary format, then replay the *same*
file through several machines — bit-identical results, no regeneration.

Usage:
    python examples/trace_workflow.py [app] [scale]
"""

import sys
import tempfile
from pathlib import Path

from repro import presets
from repro.isa.tracefile import dump_trace, load_trace
from repro.sim.simulator import Simulator
from repro.workloads import APP_NAMES, EventTrace, get_app


def main() -> None:
    app = sys.argv[1] if len(sys.argv) > 1 else "pixlr"
    scale = float(sys.argv[2]) if len(sys.argv) > 2 else 1.0
    if app not in APP_NAMES:
        raise SystemExit(f"unknown app {app!r}")

    trace = EventTrace(get_app(app), scale=scale)
    total = sum(len(trace.event(k)) for k in range(len(trace)))

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / f"{app}.espt"
        size = dump_trace(trace, path)
        print(f"recorded {app}: {len(trace)} events, {total:,} "
              f"instructions -> {size:,} bytes "
              f"({size / total:.2f} B/instruction)\n")

        loaded = load_trace(path)
        print(f"{'configuration':<16}{'cycles':>12}{'IPC':>8}"
              f"{'identical to live trace':>26}")
        print("-" * 62)
        for cfg in (presets.baseline(), presets.nl_s(), presets.esp_nl()):
            replayed = Simulator(loaded, cfg).run()
            live = Simulator(trace, cfg).run()
            same = "yes" if replayed.cycles == live.cycles else "NO"
            print(f"{cfg.name:<16}{replayed.cycles:>12,.0f}"
                  f"{replayed.ipc:>8.3f}{same:>26}")

    print("\nThe .espt file is self-contained (columnar streams), so "
          "a recorded workload can be shared and replayed elsewhere.")


if __name__ == "__main__":
    main()
