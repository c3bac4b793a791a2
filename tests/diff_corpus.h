#pragma once

// Shared corpus for differential and chaos testing: deterministic star-schema
// tables (fact ⋈ d1 ⋈ d2), a seeded random query generator covering the
// engine's supported SELECT surface, and row stringification for bit-exact
// result comparison. Extracted from parallel_differential_test.cc so the
// chaos harness (chaos_test.cc) fuzzes the same query space the differential
// suite pins.
//
// Everything here is deterministic in its seed arguments: same seed, same
// tables, same query text — that is what lets a chaos run compare its
// post-fault rerun against a never-faulted baseline bit for bit.

#include <cstdio>
#include <string>
#include <vector>

#include "exec/engine.h"
#include "storage/engine_profile.h"
#include "storage/table.h"
#include "util/rng.h"

namespace joinboost {
namespace diff_corpus {

inline std::string CellText(const Value& v) {
  if (v.null) return "NULL";
  char buf[64];
  switch (v.type) {
    case TypeId::kFloat64:
      std::snprintf(buf, sizeof(buf), "%.17g", v.d);
      return buf;
    case TypeId::kString:
      return v.s;
    case TypeId::kInt64:
      std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(v.i));
      return buf;
  }
  return "?";
}

inline std::vector<std::string> RowStrings(const exec::ExecTable& t) {
  std::vector<std::string> rows;
  rows.reserve(t.rows);
  for (size_t r = 0; r < t.rows; ++r) {
    std::string row;
    for (size_t c = 0; c < t.cols.size(); ++c) {
      if (c) row += "|";
      row += CellText(t.GetValue(r, c));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

/// fact(k1, k2, cat, x0, y) with k1 over-ranging d1's key set (LEFT/ANTI
/// joins produce genuine null-extended rows) and d1 carrying duplicate keys
/// (multi-match probe order is part of the determinism contract). cat is a
/// low-cardinality string column so dictionary-translated predicates are in
/// the fuzzed surface. `load` registers through the storage profile, so
/// compressed profiles get genuinely encoded payloads (the encoded-vs-
/// decoded axis needs that; the original axes keep plain storage).
inline void BuildDiffTables(exec::Database* db, uint64_t seed, size_t rows,
                            bool load = false) {
  Rng rng(seed);
  const int64_t kK1Range = 30, kD1Keys = 17, kK2Range = 11;
  std::vector<int64_t> k1(rows), k2(rows);
  std::vector<std::string> cat(rows);
  std::vector<double> x0(rows), y(rows);
  for (size_t i = 0; i < rows; ++i) {
    k1[i] = rng.NextInt(0, kK1Range - 1);
    k2[i] = rng.NextInt(0, kK2Range - 1);
    cat[i] = "c" + std::to_string(rng.NextInt(0, 11));
    x0[i] = rng.NextDouble() * 10;
    y[i] = 3.0 * x0[i] + static_cast<double>(k1[i]) -
           2.0 * static_cast<double>(k2[i]) + rng.NextGaussian();
  }
  std::vector<int64_t> d1k;
  std::vector<double> f1;
  for (int64_t k = 0; k < kD1Keys; ++k) {
    d1k.push_back(k);
    f1.push_back(static_cast<double>(rng.NextInt(1, 1000)));
  }
  for (int64_t k : {int64_t{2}, int64_t{5}}) {  // duplicate build-side keys
    d1k.push_back(k);
    f1.push_back(static_cast<double>(rng.NextInt(1, 1000)));
  }
  std::vector<int64_t> d2k;
  std::vector<double> f2;
  for (int64_t k = 0; k < kK2Range; ++k) {
    d2k.push_back(k);
    f2.push_back(static_cast<double>(rng.NextInt(1, 1000)));
  }
  auto reg = [&](TablePtr t) {
    if (load) {
      db->LoadTable(std::move(t));
    } else {
      db->RegisterTable(std::move(t));
    }
  };
  reg(TableBuilder("fact")
          .AddInts("k1", k1)
          .AddInts("k2", k2)
          .AddStrings("cat", cat)
          .AddDoubles("x0", x0)
          .AddDoubles("y", y)
          .Build());
  reg(TableBuilder("d1").AddInts("k1", d1k).AddDoubles("f1", f1).Build());
  reg(TableBuilder("d2").AddInts("k2", d2k).AddDoubles("f2", f2).Build());
}

inline EngineProfile DiffProfile(bool use_planner, int threads) {
  EngineProfile p = EngineProfile::DSwap();
  p.use_planner = use_planner;
  p.exec_threads = threads;
  // Shrink the morsel knobs so test-sized inputs genuinely fan out: a 6k-row
  // scan becomes ~24 morsels instead of one.
  p.morsel_rows = 256;
  p.parallel_threshold_rows = 64;
  return p;
}

// ---------------------------------------------------------------------------
// Seeded random query generator.
// ---------------------------------------------------------------------------

struct GenQuery {
  std::string sql;
  bool ordered = false;  ///< ORDER BY pins a total output order
};

/// One random query over fact ⋈ d1 ⋈ d2. The generator only emits shapes
/// the engine supports (equi joins, single-level aggregates, ORDER BY over
/// output columns) and pairs LIMIT with a total order so content is
/// well-defined under join reordering.
inline GenQuery GenerateQuery(uint64_t seed) {
  Rng rng(seed);
  GenQuery q;

  // Join shape. 0 = fact only, 1 = +d1, 2 = +d2, 3 = both.
  int joins = static_cast<int>(rng.NextInt(0, 3));
  bool has_d1 = joins == 1 || joins == 3;
  bool has_d2 = joins == 2 || joins == 3;
  // d1 join flavor: 0-5 inner, 6-7 left, 8 semi, 9 anti.
  int d1_flavor = has_d1 ? static_cast<int>(rng.NextInt(0, 9)) : -1;
  bool d1_left = d1_flavor == 6 || d1_flavor == 7;
  bool d1_semi_anti = d1_flavor >= 8;
  bool d1_cols = has_d1 && !d1_semi_anti;

  std::string from = "FROM fact";
  if (has_d1) {
    const char* kind = d1_semi_anti
                           ? (d1_flavor == 8 ? "SEMI JOIN" : "ANTI JOIN")
                           : (d1_left ? "LEFT JOIN" : "JOIN");
    from += std::string(" ") + kind + " d1 ON fact.k1 = d1.k1";
  }
  if (has_d2) from += " JOIN d2 ON fact.k2 = d2.k2";

  // Value expressions available under this join shape.
  std::vector<std::string> exprs = {
      "fact.x0", "fact.y", "fact.k1", "fact.k2", "(fact.x0 + fact.y)",
      "(fact.x0 * 2 + 1)", "(fact.y - fact.x0)"};
  if (d1_cols) {
    exprs.push_back("d1.f1");
    exprs.push_back("(fact.y * d1.f1)");
    exprs.push_back("(d1.f1 / 100)");
  }
  if (has_d2) {
    exprs.push_back("d2.f2");
    exprs.push_back("(fact.x0 + d2.f2)");
  }
  auto pick_expr = [&]() { return exprs[rng.NextBounded(exprs.size())]; };

  // WHERE: 0-2 conjuncts.
  std::vector<std::string> preds = {
      "fact.x0 > " + std::to_string(rng.NextInt(0, 8)),
      "fact.y < " + std::to_string(rng.NextInt(10, 40)),
      "fact.k1 <> " + std::to_string(rng.NextInt(0, 16)),
      "fact.x0 BETWEEN 2 AND " + std::to_string(rng.NextInt(4, 9)),
      "fact.k2 IN (1, 3, 5, " + std::to_string(rng.NextInt(6, 9)) + ")",
      "NOT fact.k1 = " + std::to_string(rng.NextInt(0, 29)),
      // Dictionary-translated string predicates (equality-class only: code
      // comparison and string comparison agree there, so row-mode engines
      // stay comparable). 'c12'/'c13' miss the dictionary on purpose.
      "fact.cat = 'c" + std::to_string(rng.NextInt(0, 13)) + "'",
      "fact.cat <> 'c" + std::to_string(rng.NextInt(0, 11)) + "'",
      "fact.cat IN ('c1', 'c5', 'nope', 'c" +
          std::to_string(rng.NextInt(0, 13)) + "')",
      "fact.cat NOT IN ('c2', 'c" + std::to_string(rng.NextInt(0, 13)) + "')",
  };
  if (d1_cols && !d1_left) {
    preds.push_back("d1.f1 >= " + std::to_string(rng.NextInt(1, 900)));
  }
  if (d1_cols && d1_left) {
    // Null-side predicates must stay above the join (PR 2 regression, now
    // under the parallel probe as well).
    preds.push_back(rng.NextInt(0, 1) == 0 ? "d1.f1 IS NULL"
                                           : "d1.f1 IS NOT NULL");
  }
  if (rng.NextInt(0, 9) == 0) {
    preds.push_back("fact.k1 IN (SELECT d1.k1 FROM d1 WHERE d1.f1 > " +
                    std::to_string(rng.NextInt(100, 800)) + ")");
  }
  int num_preds = static_cast<int>(rng.NextInt(0, 2));
  std::string where;
  for (int i = 0; i < num_preds; ++i) {
    where += (i == 0 ? " WHERE " : " AND ");
    where += preds[rng.NextBounded(preds.size())];
  }

  bool aggregate = rng.NextInt(0, 1) == 0;
  if (aggregate) {
    std::vector<std::string> keys;
    int key_shape = static_cast<int>(rng.NextInt(0, 9));
    if (key_shape < 4) {
      keys = {"fact.k1"};
    } else if (key_shape < 7) {
      keys = {"fact.k2"};
    } else if (key_shape < 9) {
      keys = {"fact.k1", "fact.k2"};
    }  // else: global aggregate, no keys
    std::vector<std::string> items;
    std::string group_sql, order_sql;
    for (size_t i = 0; i < keys.size(); ++i) {
      items.push_back(keys[i] + " AS g" + std::to_string(i));
      group_sql += (i == 0 ? " GROUP BY " : ", ") + keys[i];
      order_sql += (i == 0 ? " ORDER BY " : ", ") + ("g" + std::to_string(i));
    }
    int num_aggs = static_cast<int>(rng.NextInt(1, 3));
    const char* funcs[] = {"SUM", "COUNT", "AVG", "MIN", "MAX"};
    for (int a = 0; a < num_aggs; ++a) {
      const char* f = funcs[rng.NextBounded(5)];
      std::string arg =
          (std::string(f) == "COUNT" && rng.NextInt(0, 1) == 0) ? "*"
                                                                : pick_expr();
      items.push_back(std::string(f) + "(" + arg + ") AS a" +
                      std::to_string(a));
    }
    std::string having;
    if (!keys.empty() && rng.NextInt(0, 4) == 0) {
      having = " HAVING COUNT(*) > " + std::to_string(rng.NextInt(1, 5));
    }
    std::string limit;
    if (!keys.empty() && rng.NextInt(0, 4) == 0) {
      limit = " LIMIT " + std::to_string(rng.NextInt(1, 8));
    }
    std::string select = "SELECT ";
    for (size_t i = 0; i < items.size(); ++i) {
      if (i) select += ", ";
      select += items[i];
    }
    // Group keys are unique per output row, so ordering by all of them pins
    // a total order (required for LIMIT to be content-deterministic).
    q.sql =
        select + " " + from + where + group_sql + having + order_sql + limit;
    q.ordered = true;  // keyed: total order; global: single row
  } else {
    int num_items = static_cast<int>(rng.NextInt(1, 3));
    std::string select = "SELECT ";
    bool distinct = rng.NextInt(0, 6) == 0;
    if (distinct) select += "DISTINCT ";
    std::string order_sql;
    for (int i = 0; i < num_items; ++i) {
      std::string alias = "c" + std::to_string(i);
      if (i) select += ", ";
      select += pick_expr() + " AS " + alias;
      order_sql += (i == 0 ? " ORDER BY " : ", ") + alias;
      if (rng.NextInt(0, 2) == 0) order_sql += " DESC";
    }
    bool ordered = rng.NextInt(0, 9) < 7;
    std::string tail;
    if (ordered) {
      // Ordering by every output column makes the sorted sequence unique
      // even under join reordering (ties are whole-row duplicates).
      tail = order_sql;
      if (rng.NextInt(0, 2) == 0) {
        tail += " LIMIT " + std::to_string(rng.NextInt(1, 200));
      }
    }
    q.sql = select + " " + from + where + tail;
    q.ordered = ordered;
  }
  return q;
}

}  // namespace diff_corpus
}  // namespace joinboost
