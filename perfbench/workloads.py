"""The four benchmark workloads.

Each workload builds a fixed list of operations in set-up, runs one
operation at a time through the public functions of bergepaths, and checks
each result outside the timed region. An operation carries ``size``, the
number of user-level operations it stands for: sweep instances certified,
queries answered or Turan cells solved. ``build`` also sets ``instances``,
the hypergraph instances (or cells) the operation list covers.

Why each workload exists, and which layer metrics should move which
end-to-end metric on it, is written down in DESIGN.md beside this file.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
EXPECTED = json.loads((Path(__file__).resolve().parent / "expected.json").read_text())


@dataclass
class Op:
    label: str
    args: tuple
    size: int


class Workload:
    name = ""
    seeded = False

    def __init__(self, mods, seed: int, tiny: bool):
        self.m = mods
        self.seed = seed
        self.tiny = tiny

    def build(self) -> list[Op]:
        raise NotImplementedError

    def warm_up(self) -> None:
        raise NotImplementedError

    def run(self, op: Op):
        raise NotImplementedError

    def check(self, op: Op, result) -> bool:
        raise NotImplementedError

    def check_round(self, results: list) -> bool:
        """Check of the whole first round, after each result passed ``check``."""
        return True

    def full_check(self) -> int:
        """A costlier check the traced run makes once, untimed.

        Returns the instances it checked (0 for none); raises
        AssertionError when the check fails.
        """
        return 0


SWEEP_CHECKS = ("inequality", "equality_classifier", "good_set_existence")


class Sweep63(Workload):
    """Sampled (6,3) sweep, the criterion-4 good-set stage, in blocks.

    Block j of the timed set is a whole ``run_sweep`` on the sha256-ctr
    stream keyed ``seed * 1000 + j``; warm-up uses key ``seed * 1000 + 999``,
    so no timed instance is ever warm.
    """

    name = "sweep63"
    seeded = True

    def _config(self, key: int, count: int):
        return self.m.verify.SweepConfig(
            n=6, r=3, mode="sample", sample_count=count, seed=key, checks=SWEEP_CHECKS
        )

    def build(self) -> list[Op]:
        blocks = 2 if self.tiny else 80
        ops = []
        for j in range(blocks):
            cfg = self._config(self.seed * 1000 + j, 5 if self.tiny else 10)
            ops.append(Op(f"block{j}", (cfg,), cfg.sample_count))
        self.instances = sum(op.size for op in ops)
        return ops

    def warm_up(self) -> None:
        self.run(Op("warm", (self._config(self.seed * 1000 + 999, 20),), 0))

    def run(self, op: Op):
        verify = self.m.verify
        return verify.report_to_dict(verify.run_sweep(op.args[0]))

    def check(self, op: Op, result) -> bool:
        return (
            result["violations"] == []
            and result["instances"] == op.size
            and sum(result["census"].values()) == op.size
        )


class Rotation53(Workload):
    """Exhaustive (5,3) sweep of rotation_bound and spanning_cycle. No seed.

    The whole sweep takes 12 to 15 s, too long to repeat within one run.
    The timed operations are every STRIDE-th instance of each edge count,
    in index order, so the subset keeps the sweep's mix of edge counts
    (the cost grows steeply with it); each runs through the block runner
    that ``run_sweep`` hands to its workers. Every run checks the subset's
    merged report against the digest pinned in expected.json; the traced
    run also runs the whole sweep through ``run_sweep`` once and checks it
    against the golden census and its pinned digest.
    """

    name = "rotation53"
    CHECKS = ("rotation_bound", "spanning_cycle")
    STRIDE = 8

    def _config(self, n: int, r: int = 3):
        return self.m.verify.SweepConfig(n=n, r=r, mode="exhaustive", checks=self.CHECKS)

    def build(self) -> list[Op]:
        self.cfg = self._config(4 if self.tiny else 5)
        self.m.verify.validate_config(self.cfg)
        total = 1 << len(self.m.hypergraph.possible_edges(self.cfg.n, 3))
        seen: dict[int, int] = {}
        ops = []
        for i in range(total):
            m = i.bit_count()
            if seen.get(m, 0) % self.STRIDE == 0:
                ops.append(Op(f"instance{i}", (i,), 1))
            seen[m] = seen.get(m, 0) + 1
        self.instances = len(ops)
        return ops

    def warm_up(self) -> None:
        # disjoint from every timed instance: (4,3) for the full size, (4,4) for tiny
        self.m.verify.run_sweep(self._config(4, 4 if self.tiny else 3))

    def run(self, op: Op):
        index = op.args[0]
        return self.m.verify._run_block(self.cfg, index, index + 1)

    def check(self, op: Op, result) -> bool:
        checked, census, violations = result
        return not violations and checked == 1 and sum(census.values()) == 1

    def _digest(self, report) -> str:
        text = json.dumps(self.m.verify.report_to_dict(report), indent=2) + "\n"
        return hashlib.sha256(text.encode()).hexdigest()

    def check_round(self, results: list) -> bool:
        verify = self.m.verify
        instances, census, violations = verify.merge_block_results(results)
        report = verify.SweepReport(self.cfg, instances, violations, census)
        return self._digest(report) == EXPECTED["rotation_subset_sha256"][str(self.cfg.n)]

    def full_check(self) -> int:
        report = self.m.verify.run_sweep(self.cfg)
        if self.tiny:
            golden = json.loads((GOLDEN / "census_4_3.json").read_text())
        else:
            golden = json.loads((GOLDEN / "report_5_3_exhaustive.json").read_text())["census"]
        assert report.census == golden, report.census
        digest = self._digest(report)
        assert digest == EXPECTED["rotation_report_sha256"][str(self.cfg.n)], digest
        return report.instances


class Query63(Workload):
    """Per-instance queries: ``hg analyze``, ``hg longest`` and ``hg goodset``.

    One call per operation: ``weights.weight_report``,
    ``search.longest_berge_path`` or ``goodsets.find_good_set``. For each
    edge count in EDGE_COUNTS the instance is the first connected (6,3)
    instance with that many edges on the sha256-ctr stream under the fixed
    key POOL_KEY; the seed draws a vertex relabelling for each, also from
    sha256. Every seed thus gets other labelled inputs of the same
    isomorphism classes. The per-instance cost is heavy-tailed (1.2k to 46k
    longest paths), and a fresh sample per seed would make the mean, and so
    the throughput, depend on the seed by more than any bound a regression
    test could use. The spread of edge counts makes ``find_good_set`` take
    the rotation route on the sparse instances (no (k+1)-cycle) and the
    cycle route on the dense ones.
    """

    name = "query63"
    seeded = True
    POOL_KEY = 63
    KINDS = ("analyze", "longest", "goodset")
    EDGE_COUNTS = (3, 4, 5, 6, 7, 8, 10, 12)

    def _instances(self, key_seed: int, start: int, edge_counts) -> list:
        hgmod, verify = self.m.hypergraph, self.m.verify
        slots = hgmod.possible_edges(6, 3)
        out = []
        for m in edge_counts:
            index = start
            while True:
                subset = verify.sample_mask(self.POOL_KEY, index, len(slots))
                if subset.bit_count() == m:
                    hg = hgmod.hypergraph_from_subset(6, 3, slots, subset)
                    if hgmod.is_connected(hg):
                        break
                index += 1
            out.append(self._relabel(hg, key_seed, index))
        return out

    def _relabel(self, hg, key_seed: int, index: int):
        hgmod = self.m.hypergraph
        order = sorted(
            range(hg.n),
            key=lambda v: hashlib.sha256(f"{key_seed}:{index}:{v}".encode()).digest(),
        )
        perm = {v: i for i, v in enumerate(order)}
        masks = [hgmod.mask_of(perm[v] for v in hgmod.bits(e)) for e in hg.edges]
        return hgmod.from_masks(hg.n, hg.r, masks)

    def build(self) -> list[Op]:
        edge_counts = (3, 5, 7) if self.tiny else self.EDGE_COUNTS
        hgs = self._instances(self.seed, 0, edge_counts)
        self.instances = len(hgs)
        return [Op(f"{kind}{i}", (kind, hg), 1) for i, hg in enumerate(hgs) for kind in self.KINDS]

    def warm_up(self) -> None:
        # a pool entry past the timed ones, so no timed instance is warm
        for hg in self._instances(self.seed, 10_000, (6,)):
            for kind in self.KINDS:
                self.run(Op("warm", (kind, hg), 0))

    def run(self, op: Op):
        kind, hg = op.args
        if kind == "analyze":
            return self.m.weights.weight_report(hg)
        if kind == "longest":
            return self.m.search.longest_berge_path(hg)
        return self.m.goodsets.find_good_set(hg)

    def check(self, op: Op, result) -> bool:
        kind, hg = op.args
        search = self.m.search
        if kind == "analyze":
            return result.total <= hg.n and len(result.per_edge) == hg.num_edges
        if kind == "longest":
            k, witness = result
            search.validate_path(hg, witness)
            return witness.length == k == search.longest_path_length(hg, search.PathQuery())
        return self.m.goodsets.is_good_set(hg, result.S) is not None


class Turan(Workload):
    """Exact Turan numbers for Berge paths on a fixed list of cells. No seed.

    About 50k short floor-pruned existence queries per round. The cells
    (6,3,5) and (7,5,6) are left out: each takes 2.7 to 3.9 s, so a round
    with them took about 6 s and a run got only three readings of each.
    """

    name = "turan"
    CELLS = (
        (5, 3, 3), (5, 3, 4), (6, 3, 3), (6, 3, 4), (6, 4, 3),
        (6, 4, 4), (6, 4, 5), (7, 5, 4), (7, 5, 5),
    )
    TINY_CELLS = ((5, 3, 3), (5, 3, 4), (6, 3, 4))

    def build(self) -> list[Op]:
        cells = self.TINY_CELLS if self.tiny else self.CELLS
        self.instances = len(cells)
        return [Op(f"ex{cell}", cell, 1) for cell in cells]

    def warm_up(self) -> None:
        self.m.weights.turan_exact(4, 3, 3)

    def run(self, op: Op):
        return self.m.weights.turan_exact(*op.args)

    def check(self, op: Op, result) -> bool:
        n, r, k = op.args
        witness = result.witness
        ok = (
            result.exact == EXPECTED["turan_exact"][f"{n},{r},{k}"]
            and witness.num_edges == result.exact
            and self.m.search.longest_path_length(witness) < k
        )
        if op.args == (6, 3, 4):
            golden = json.loads((GOLDEN / "turan_6_3_4.json").read_text())
            edges = [list(self.m.hypergraph.bits(e)) for e in witness.edges]
            ok = ok and result.exact == golden["exact"] and edges == golden["witness_edges"]
        return ok


WORKLOADS = {w.name: w for w in (Sweep63, Rotation53, Query63, Turan)}
