#pragma once

#include <string>

namespace joinboost {

/// Configuration of genuine engine mechanisms, used to emulate the DBMS
/// variants the paper evaluates (Figures 5 and 15). Each flag switches a real
/// code path — see docs/ARCHITECTURE.md "`EngineProfile` knobs and the
/// paper's modes".
struct EngineProfile {
  std::string name = "D-Swap";

  /// Vectorized columnar operators (true) vs. tuple-at-a-time row execution.
  bool columnar_exec = true;

  /// Compress table payloads at rest; scans decompress, writes recompress.
  bool compression = false;

  /// Write-ahead logging of updates / created tables.
  bool wal = false;

  /// Spill WAL to an actual disk file (disk-based profiles).
  bool wal_to_disk = false;

  /// MVCC: copy old values into the version store before in-place updates,
  /// and single-thread the update path (DuckDB's updates are
  /// single-threaded, §5.3.2 "Implementation").
  bool mvcc = false;

  /// Engine patch enabling pointer-based column swap between tables (§5.4).
  bool allow_column_swap = false;

  /// DP mode: tables flagged as dataframes bypass WAL/CC/compression but
  /// scans pay an interop materialization pass (DuckDB-Pandas, §5.4).
  bool dataframe_interop = false;

  /// Intra-query thread budget for morsel-driven execution (paper finds 4
  /// best). Clamped to the engine's pool size at Database construction.
  int exec_threads = 4;

  /// Rows per morsel: scans, join probes and aggregations split their input
  /// into fixed-size morsels dispatched on the shared pool. Outputs merge in
  /// morsel-index order, so results are bit-identical to serial execution.
  size_t morsel_rows = 16384;

  /// Inputs below this row count run serially: morsel dispatch overhead
  /// would dominate on small intermediates. 0 disables intra-query
  /// parallelism entirely.
  size_t parallel_threshold_rows = 8192;

  /// Rows per horizontal storage chunk: loads and result materialization
  /// seal column segments every chunk_rows rows, so appends are O(new rows)
  /// (new segments only, never rewriting existing ones) and morsels align
  /// to segment boundaries. 0 = monolithic single-chunk columns (the
  /// pre-chunking layout). Results are bit-identical for any value —
  /// chunk boundaries never influence row order, group order, or float
  /// accumulation order.
  size_t chunk_rows = 0;

  /// Route SELECTs through the logical planner (predicate pushdown,
  /// projection pruning, constant folding, greedy join reordering). Off =
  /// execute the raw AST; kept for differential testing (planner_test.cc).
  bool use_planner = true;

  /// Compressed execution: evaluate predicates and hash keys directly on
  /// encoded columns (dictionary ids, frame-of-reference blocks) and only
  /// late-materialize the blocks a query actually touches. Results are
  /// bit-identical to the decode-everything path; off is kept for
  /// differential testing (§5.3.2 "Compression").
  bool compressed_exec = true;

  /// Serving-layer admission control: maximum sessions executing a request
  /// concurrently (queries or batched predictions). Extra requests queue on
  /// the admission gate. 0 = match exec_threads.
  int serve_admission_slots = 0;

  /// Longest a request may queue on the admission gate before it is rejected
  /// with a typed AdmissionRejected error (serving overload sheds load
  /// instead of building an unbounded queue). 0 = wait forever (the
  /// historical behaviour).
  int64_t serve_admission_max_wait_ms = 0;

  // ---- Presets matching the paper's systems ----

  /// Commercial columnar, disk-based: compression + WAL-to-disk, no swap.
  static EngineProfile XCol() {
    EngineProfile p;
    p.name = "X-col";
    p.compression = true;
    p.wal = true;
    p.wal_to_disk = true;
    return p;
  }

  /// Commercial row store: row-at-a-time execution, WAL-to-disk.
  static EngineProfile XRow() {
    EngineProfile p;
    p.name = "X-row";
    p.columnar_exec = false;
    p.wal = true;
    p.wal_to_disk = true;
    return p;
  }

  /// X-col plus simulated column swap (the paper's X-Swap*).
  static EngineProfile XSwapStar() {
    EngineProfile p = XCol();
    p.name = "X-Swap*";
    p.allow_column_swap = true;
    return p;
  }

  /// DuckDB disk-based: columnar, compressed, WAL-to-disk.
  static EngineProfile DDisk() {
    EngineProfile p;
    p.name = "D-disk";
    p.compression = true;
    p.wal = true;
    p.wal_to_disk = true;
    return p;
  }

  /// DuckDB in-memory: no WAL, but MVCC versioning on updates.
  static EngineProfile DMem() {
    EngineProfile p;
    p.name = "D-mem";
    p.compression = true;
    p.mvcc = true;
    return p;
  }

  /// DuckDB + Pandas: fact table as dataframe; interop scan cost; updates
  /// become pointer swaps on the dataframe.
  static EngineProfile DP() {
    EngineProfile p;
    p.name = "DP";
    p.compression = true;
    p.mvcc = true;
    p.dataframe_interop = true;
    p.allow_column_swap = true;
    return p;
  }

  /// Modified DuckDB with in-engine column swap (the paper's default).
  static EngineProfile DSwap() {
    EngineProfile p;
    p.name = "D-Swap";
    p.compression = true;
    p.mvcc = true;
    p.allow_column_swap = true;
    return p;
  }
};

}  // namespace joinboost
