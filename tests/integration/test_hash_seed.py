"""The simulated clock does not depend on Python's string-hash seed.

Two cost-address formulas hash a key: ``static_map_cost_base`` hashes
``(map, key)``, and a hash index keyed by a string or a tuple (TPC-C's
``customer_name``) hashes that key. Either one leaking ``hash()`` of a
``str`` into an address would make coalescing -- and so every
simulated second -- change with ``PYTHONHASHSEED``. Each seed runs in
its own interpreter: a TM1 bulk and a reduced TPC-C bulk (by-name
lookups included) on both backends. K-SET packs each bulk into few
wide waves, so probes of one type share warps, and each launch's
memory-transaction count is compared too: at this size the kernels
are latency-bound, and a leak shows in coalescing before it shows in
seconds.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

_CHILD = """
import hashlib, json
from repro import EngineOptions, GPUTx
from repro.workloads import tm1, tpcc

def tm1_db():
    return tm1.build_database(1, subscribers_per_sf=64, seed=3)

def tpcc_db():
    return tpcc.build_database(
        1, customers_per_district=12, n_items=40, init_orders_per_district=4
    )

out = {}
for name, build, module in (("tm1", tm1_db, tm1), ("tpcc", tpcc_db, tpcc)):
    specs = module.generate_transactions(build(), 60, seed=11)
    for backend in ("interpreted", "vectorized"):
        db = build()
        engine = GPUTx(
            db, procedures=module.PROCEDURES,
            options=EngineOptions(backend=backend),
        )
        engine.submit_many(specs)
        result = engine.run_bulk(strategy="kset")
        state = repr(db.physical_state()).encode()
        out[f"{name}/{backend}"] = [
            result.seconds.hex(),
            hashlib.sha256(state).hexdigest(),
            [sum(r.stats.mem_transactions) for r in result.kernel_reports],
        ]
print(json.dumps(out))
"""


def run_under_seed(seed: str) -> dict:
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED=seed)
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_seconds_and_physical_state_ignore_the_hash_seed():
    first, second = run_under_seed("0"), run_under_seed("1")
    assert set(first) == {
        f"{w}/{b}" for w in ("tm1", "tpcc") for b in ("interpreted", "vectorized")
    }
    assert first == second
