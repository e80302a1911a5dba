"""ljlab benchmark: run one workload once and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload identities --seed 1 --seconds 20 --trace 0

Workloads (``workloads.py``; BENCHMARK.json says why each exists):

* ``identities``: ``verify --dim n`` for n = 2..6 and ``witness --kind
  avr|associator`` for n = 2..4. Products, norms and witness loops only.
* ``closure``: ``generate --mode lie2|jordan3`` at n = 3..6, 8 and 10, block
  and commuting generator pairs through ``generate --in``, and library
  closures at n = 3..6, each queried once by ``derived_algebra`` or
  ``is_semisimple_lie``.
* ``classify``: library ``classify(state, L)`` for many states against
  algebra objects built once (full, block-diagonal, commuting), plus
  ``classify --in .. --algebra ..`` and ``repr --algebra ..`` CLI ops.

Each op is one ``ljlab.cli.main(argv)`` call, stdout captured, or one public
library call, all in this process on one thread. A run is a fixed number of
passes, ``round(seconds / nominal pass time)`` (at least 2), so the work is
fixed for a given ``--seconds``. Every op's output is checked
(``check.py``); a failed op is counted, not raised. Times are scaled to a
reference machine speed (``speed.py``); the raw times are kept in the
result file.

``--trace 0`` prints the end-to-end metrics: setup_s (median of five
set-ups: import, input generation, one untimed warm-up op of each kind),
wall_s (median pass time), op_p50_ms, op_tail_ms (latency with exactly ten
ops beyond it), peak_rss_mb and ok_ratio (share of ops that pass the
check). ``--trace 1`` runs half the passes untraced and then the same passes
traced (``tracer.py``), requires equal outputs, and prints the per-layer
metrics: calls and counters per pass, each layer's self time as a share of
traced op time, and the tracing overhead.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Details, with the environment, the op-latency
curve per op class and n, and any failures, go to
``.perfbench_out/result-<workload>-seed<seed>-trace<0|1>.json``; the traced
run's spans to ``.perfbench_out/spans-<workload>.npz``.

``record.py`` records the reference outputs; ``selftest.py`` tests the
checker and the tracer.
"""

import sys

import bootstrap

bootstrap.prepare()

import harness  # noqa: E402  (needs the BLAS threads pinned first)

sys.exit(harness.main())
