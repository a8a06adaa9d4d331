"""pgbench-style TPC-B transaction mix for the PostgreSQL engine.

One transaction (pgbench's default script):

1. UPDATE one row of ``accounts`` (the large table, random row),
2. UPDATE one row of ``tellers``,
3. UPDATE one row of ``branches``,
4. INSERT one row into ``history``,
5. COMMIT (WAL fsync).

The paper's in-text experiment toggles ``full_page_writes`` and observes
~2x throughput and a WAL-volume reduction of roughly the data-page volume
the images occupied; :func:`run_pgbench` measures both.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.postgres.engine import PostgresEngine
from repro.sim.clock import SimClock
from repro.sim.rng import make_rng

#: pgbench scale factor unit sizes.
ACCOUNTS_PER_BRANCH = 10_000
TELLERS_PER_BRANCH = 10

#: Seed of the transaction stream's account / teller / branch draws.
SEED = 9


@dataclass(frozen=True)
class PgBenchConfig:
    """Scale: ``scale`` branches, each with its tellers and accounts."""

    scale: int = 2

    @property
    def accounts(self) -> int:
        return self.scale * ACCOUNTS_PER_BRANCH

    @property
    def tellers(self) -> int:
        return self.scale * TELLERS_PER_BRANCH

    @property
    def branches(self) -> int:
        return self.scale


@dataclass
class PgBenchResult:
    """One run's throughput and WAL accounting."""

    transactions: int
    elapsed_seconds: float
    wal_bytes: int
    wal_full_page_bytes: int
    wal_record_bytes: int
    full_page_writes: bool

    @property
    def throughput_tps(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.transactions / self.elapsed_seconds


def setup_pgbench(engine: PostgresEngine, config: PgBenchConfig) -> None:
    """Create and fill the four pgbench tables."""
    engine.create_table("accounts", config.accounts)
    engine.create_table("tellers", config.tellers)
    engine.create_table("branches", config.branches)
    engine.create_table("history", config.accounts)  # generous headroom
    engine.checkpoint()


def run_pgbench(engine: PostgresEngine, clock: SimClock,
                transactions: int,
                config: PgBenchConfig = PgBenchConfig()) -> PgBenchResult:
    """Run the timed transaction stream (tables must exist)."""
    rng = make_rng(SEED)
    wal_before = engine.wal_stats.total_bytes
    fpi_before = engine.wal_stats.full_page_bytes
    rec_before = engine.wal_stats.record_bytes
    start_us = clock.now_us
    history_cursor = 0
    for index in range(transactions):
        account = rng.randrange(config.accounts)
        teller = rng.randrange(config.tellers)
        branch = rng.randrange(config.branches)
        delta = rng.randrange(-5000, 5000)
        engine.update_row("accounts", account, ("bal", index, delta))
        engine.update_row("tellers", teller, ("tbal", index, delta))
        engine.update_row("branches", branch, ("bbal", index, delta))
        engine.insert_row("history", history_cursor % config.accounts,
                          ("hist", index, account, delta))
        history_cursor += 1
        engine.commit()
    elapsed = (clock.now_us - start_us) / 1e6
    stats = engine.wal_stats
    return PgBenchResult(
        transactions=transactions,
        elapsed_seconds=elapsed,
        wal_bytes=stats.total_bytes - wal_before,
        wal_full_page_bytes=stats.full_page_bytes - fpi_before,
        wal_record_bytes=stats.record_bytes - rec_before,
        full_page_writes=engine.config.full_page_writes,
    )
