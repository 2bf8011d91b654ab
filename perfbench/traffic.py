"""Seeded request generation: every request the benchmark sends.

The workload seed fixes every input — the systems, the evaluator's hashed
task parameters, the interactive mix, think times and which earlier jobs are
resubmitted — and the daemon only ever sees the generated requests.
"""

import json
import random

# Variant spaces per workload; ``tiny`` shrinks them for the self-test.
GREEDY_INTERFACES = {"full": 15, "tiny": 10}  # 2^15 variants, 31 tasks each
EXACT_INTERFACES = {"full": 9, "tiny": 5}  # 2^9 variants, 19 tasks each
INTERACTIVE_KINDS = ["tv", "automotive", "figure2", "s3", "s4", "s5", "s6"]


def stream(seed, purpose):
    """An independent deterministic random stream per purpose."""
    return random.Random(f"{seed}/{purpose}")


def line(request):
    return json.dumps(request, separators=(",", ":"))


def scaling(interfaces, system_seed):
    return {
        "synthetic": {
            "common_tasks": interfaces + 1,
            "interfaces": interfaces,
            "clusters_per_interface": 2,
            "cluster_depth": 1,
            "seed": system_seed,
        }
    }


def evaluator(strategy, params_seed):
    return {"strategy": strategy, "params": {"kind": "hashed", "seed": params_seed}}


# Parameter draws the greedy batch jobs cycle through: a run averages the
# greedy effort over several inputs, while the references (one
# single-threaded sweep per draw) stay affordable and cacheable per seed.
GREEDY_DRAWS = 8


def greedy_batch(seed, number, size):
    """The `number`-th greedy batch job; submitted with ``no_cache`` so a
    repeated draw recomputes."""
    draw = stream(seed, f"greedy/{number % GREEDY_DRAWS}").getrandbits(48)
    return {
        "op": "submit",
        "name": "sweep-greedy",
        "tenant": "batch",
        "weight": 1,
        "no_cache": True,
        "system": scaling(GREEDY_INTERFACES[size], draw),
        "evaluator": evaluator("greedy", draw),
    }


def exact_batch(seed, number, size):
    """The ``number``-th exact sweep job: a fresh parameter draw each time,
    so a run averages the search effort over many inputs."""
    draw = stream(seed, f"exact/{number}").getrandbits(48)
    return {
        "op": "submit",
        "name": "sweep-exact",
        "tenant": "batch",
        "weight": 1,
        "no_cache": True,
        "system": scaling(EXACT_INTERFACES[size], draw),
        "evaluator": evaluator("branch_and_bound", draw),
    }


class Blocks:
    """Draws from `items` in seeded shuffled blocks, each item once per
    block: the mix is random in order but exact in proportion, so a
    percentile never moves because one seed drew more of a slow kind."""

    def __init__(self, rng, items):
        self.rng = rng
        self.items = list(items)
        self.block = []

    def next(self):
        if not self.block:
            self.block = list(self.items)
            self.rng.shuffle(self.block)
        return self.block.pop()


def kind_of(request):
    return request["name"].split("-", 1)[1]


def interactive(rng, kinds):
    """A fresh small exact job under a weight-2 interactive tenant; the
    48-bit parameter seed makes it distinct from every earlier job."""
    kind = kinds.next()
    params_seed = rng.getrandbits(48)
    if kind.startswith("s"):
        system = scaling(int(kind[1:]), rng.getrandbits(32))
    else:
        system = {"scenario": kind}
    return {
        "op": "submit",
        "name": f"interactive-{kind}",
        "tenant": rng.choice(["interactive-a", "interactive-b"]),
        "weight": 2,
        "shards": 2,
        "system": system,
        "evaluator": evaluator("branch_and_bound", params_seed),
    }


def recipe_of(request):
    """The part of a submit that identifies its result (and its reference)."""
    recipe = {"system": request["system"]}
    if "evaluator" in request:
        recipe["evaluator"] = request["evaluator"]
    return recipe
