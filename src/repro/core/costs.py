"""Calibrated cost constants and the work → seconds conversion.

The functional layer counts *work* (bytes, tokens, node visits, splits);
this module prices that work in seconds on the paper's hardware.  The
constants are calibrated against the paper's own measurements — see
DESIGN.md §5 and EXPERIMENTS.md — in particular:

- §IV.A's I/O analysis: a 160MB compressed / 1GB file takes 1.6 s to read
  (100 MB/s remote disk) and 3.2 s to decompress (312.5 MB/s);
- Table IV's four indexer configurations, which pin down the CPU cost
  trio (per-token, hot visit, cold visit), the memory-bandwidth
  contention between CPU indexer threads (2 threads → 1.77× speedup), and
  the two GPU parameters:

  * ``gpu_serial_cycles_per_visit ≈ 4000`` — a warp descending a B-tree
    is a *dependent chain* of 512-byte node loads (8 transactions × the
    C1060's ~500-cycle latency), nothing to overlap inside one warp;
  * ``gpu_effective_chains ≈ 17`` — how many such chains one GPU sustains
    concurrently in aggregate (of 30 SMs × 8 resident blocks theoretical;
    queue pops, divergence and bandwidth contention eat the rest).  This
    single scalar folds everything our simulator cannot deduce from the
    paper and is fitted to the measured 2-GPU-only throughput.

The *structure* — popular collections having deep-but-hot trees, the
largest collection being one warp's serial floor, latency hiding growing
with resident blocks — is what produces the paper's qualitative results
(GPU-alone slower than 2 CPUs, superlinear CPU+GPU combination, the 480
block optimum); the constants only set the scale.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.workload import FileWork, GroupWork
from repro.gpusim.costmodel import GPUSpec, TESLA_C1060

__all__ = ["CostConstants", "StageCosts"]


@dataclass(frozen=True)
class CostConstants:
    """All calibrated constants, in SI units (seconds, bytes)."""

    # --- I/O (paper §IV.A measurements) -------------------------------- #
    disk_read_bytes_per_s: float = 100e6
    decompress_bytes_per_s: float = 312.5e6

    # --- parsing (one Xeon thread; ~17.5 s per 1GB ClueWeb file) ------- #
    scan_s_per_byte: float = 4.4e-9
    parse_s_per_raw_token: float = 313e-9
    regroup_overhead: float = 0.05  # the paper's "about 5%"

    # --- CPU indexing (Table IV calibration) --------------------------- #
    cpu_s_per_token: float = 86e-9
    cpu_hot_visit_s: float = 19e-9
    cpu_cold_visit_s: float = 143e-9
    cpu_full_fetch_s: float = 40e-9
    cpu_split_s: float = 900e-9
    #: Throughput loss per additional CPU indexer thread on the same
    #: sockets (2 threads → 1.77× not 2×).
    cpu_bandwidth_contention: float = 0.131
    #: Hot-path cache residency lost per parser thread beyond ~3/4 of the
    #: core budget: parsers stream gigabytes through the shared L3,
    #: evicting the indexers' hot B-tree paths (why Fig 10's with-GPU
    #: curve tops out at six parsers instead of seven on the 8-core node).
    cpu_cache_pressure_per_extra_parser: float = 0.30

    # --- GPU indexing (Table IV calibration; see module docstring) ----- #
    gpu_serial_cycles_per_visit: float = 4000.0
    gpu_serial_cycles_per_token: float = 600.0
    gpu_effective_chains: float = 18.6
    gpu_spec: GPUSpec = TESLA_C1060

    # --- run lifecycle (Fig 8; Table IV pre/post rows) ------------------ #
    pre_fixed_s_per_run: float = 0.065
    post_s_per_posting: float = 22e-9
    post_fixed_s_per_run: float = 0.02

    # --- sampling & dictionary epilogue (Table VI rows) ----------------- #
    sample_seek_s_per_file: float = 0.015
    dict_combine_s_per_term: float = 29e-9
    dict_write_s_per_term: float = 698e-9


@dataclass
class StageCosts:
    """Prices :class:`FileWork` into per-stage seconds for one config."""

    constants: CostConstants = field(default_factory=CostConstants)

    # ------------------------------------------------------------------ #
    # Parser stage (Fig 3)
    # ------------------------------------------------------------------ #

    def read_seconds(self, work: FileWork) -> float:
        """Exclusive disk occupancy for the compressed file."""
        return work.compressed_bytes / self.constants.disk_read_bytes_per_s

    def decompress_seconds(self, work: FileWork) -> float:
        return work.uncompressed_bytes / self.constants.decompress_bytes_per_s

    def parse_seconds(self, work: FileWork, regroup: bool = True) -> float:
        """Steps 2–5 on one parser thread."""
        c = self.constants
        base = (
            work.uncompressed_bytes * c.scan_s_per_byte
            + work.raw_tokens * c.parse_s_per_raw_token
        )
        return base * (1.0 + (c.regroup_overhead if regroup else 0.0))

    # ------------------------------------------------------------------ #
    # CPU indexers
    # ------------------------------------------------------------------ #

    def cpu_group_seconds(
        self, group: GroupWork, num_parsers: int = 6, total_cores: int = 8
    ) -> float:
        """One CPU thread consuming one group's work, no contention."""
        c = self.constants
        pressure_threshold = 0.75 * total_cores
        pressure = c.cpu_cache_pressure_per_extra_parser * max(
            0.0, num_parsers - pressure_threshold
        )
        hot_fraction = group.hot_visit_fraction * max(0.0, 1.0 - pressure)
        hot = group.node_visits * hot_fraction
        cold = group.node_visits - hot
        return (
            group.tokens * c.cpu_s_per_token
            + hot * c.cpu_hot_visit_s
            + cold * c.cpu_cold_visit_s
            + group.full_string_fetches * c.cpu_full_fetch_s
            + group.splits * c.cpu_split_s
        )

    def cpu_stage_seconds(
        self,
        groups: list[GroupWork],
        n_indexers: int,
        num_parsers: int = 6,
        total_cores: int = 8,
    ) -> float:
        """Balanced split across ``n_indexers`` threads with contention."""
        if n_indexers <= 0 or not groups:
            return 0.0
        total = sum(
            self.cpu_group_seconds(g, num_parsers, total_cores) for g in groups
        )
        contention = 1.0 + self.constants.cpu_bandwidth_contention * (n_indexers - 1)
        return total / n_indexers * contention

    # ------------------------------------------------------------------ #
    # GPU indexers
    # ------------------------------------------------------------------ #

    def gpu_kernel_seconds(
        self, group: GroupWork, n_gpus: int, num_blocks: int = 480, dynamic: bool = True
    ) -> float:
        """Per-GPU kernel time for one group split over ``n_gpus``.

        ``time = max(aggregate path, serial floor)`` where the aggregate
        path spreads the group's dependent-load chains over the device's
        effective concurrent chains (scaled by residency when the block
        count is below saturation) and the serial floor is the largest
        single trie collection processed by one warp — the structural
        reason a GPU struggles with popular collections.
        """
        if n_gpus <= 0 or group.tokens == 0:
            return 0.0
        c = self.constants
        spec = c.gpu_spec
        serial_cycles = (
            group.node_visits * c.gpu_serial_cycles_per_visit
            + group.tokens * c.gpu_serial_cycles_per_token
        ) / n_gpus
        # Residency scaling: chains can't exceed what the launched blocks
        # provide; 480 blocks on 30 SMs saturates the effective figure.
        blocks_per_sm = max(1.0, num_blocks / spec.num_sms)
        resident = min(spec.max_blocks_per_sm, blocks_per_sm)
        # Residency fills to max at 8 blocks/SM; a deeper backlog (up to
        # 16/SM = the paper's 480) keeps SMs fed across block retirement,
        # worth a further ~25%.
        backlog_bonus = 0.25 * min(1.0, max(0.0, (blocks_per_sm - 8.0) / 8.0))
        saturation = resident / spec.max_blocks_per_sm + backlog_bonus
        chains = max(1.0, c.gpu_effective_chains * saturation)
        aggregate = serial_cycles / chains
        # Serial floor: one warp owns the biggest collection end to end.
        floor_cycles = group.largest_collection_tokens * (
            group.visits_per_token * c.gpu_serial_cycles_per_visit
            + c.gpu_serial_cycles_per_token
        )
        if not dynamic:
            # Static pre-assignment: expected collision of big collections
            # on one block inflates the floor (ablation E).
            floor_cycles *= 1.6
        overhead = spec.kernel_launch_cycles + num_blocks * spec.block_overhead_cycles / max(
            1, spec.num_sms
        )
        return spec.seconds(max(aggregate, floor_cycles) + overhead)

    # ------------------------------------------------------------------ #
    # Run lifecycle (Fig 8)
    # ------------------------------------------------------------------ #

    def pre_seconds(self, work: FileWork, n_gpus: int) -> float:
        """Serialized pre-processing: buffer handoff + h2d transfers."""
        c = self.constants
        transfer = 0.0
        if n_gpus:
            spec = c.gpu_spec
            h2d = work.unpopular.stream_chars + work.unpopular.tokens
            transfer = n_gpus * spec.transfer_seconds(h2d // max(1, n_gpus))
        return c.pre_fixed_s_per_run + transfer

    def post_seconds(self, work: FileWork, n_gpus: int) -> float:
        """Serialized post-processing: combine + compress + write."""
        c = self.constants
        transfer = 0.0
        if n_gpus:
            spec = c.gpu_spec
            d2h = work.unpopular.tokens * 8
            transfer = n_gpus * spec.transfer_seconds(d2h // max(1, n_gpus))
        return (
            c.post_fixed_s_per_run
            + work.postings_estimate * c.post_s_per_posting
            + transfer
        )

    # ------------------------------------------------------------------ #
    # Whole-run epilogue (Table VI rows)
    # ------------------------------------------------------------------ #

    def sampling_seconds(self, works: list[FileWork], sample_fraction: float) -> float:
        """Extract + parse the load-balancing sample (Table VI row 1)."""
        c = self.constants
        total_unc = sum(w.uncompressed_bytes for w in works)
        total_raw = sum(w.raw_tokens for w in works)
        sampled_bytes = total_unc * sample_fraction
        sampled_tokens = total_raw * sample_fraction
        return (
            len(works) * c.sample_seek_s_per_file
            + sampled_bytes / c.disk_read_bytes_per_s
            + sampled_bytes * c.scan_s_per_byte
            + sampled_tokens * c.parse_s_per_raw_token
        )

    def dict_combine_seconds(self, total_terms: int) -> float:
        return total_terms * self.constants.dict_combine_s_per_term

    def dict_write_seconds(self, total_terms: int) -> float:
        return total_terms * self.constants.dict_write_s_per_term
