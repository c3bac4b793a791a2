#pragma once

/// Shared test scaffolding: tmp-dir fixtures, synthetic dataset builders and
/// float-comparison helpers used across the gtest suites. Keep this header
/// dependency-light; it is compiled into every test binary.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dataset.h"
#include "core/model.h"
#include "data/generators.h"
#include "exec/engine.h"
#include "storage/table.h"
#include "util/rng.h"

namespace joinboost {
namespace test_util {

/// RAII temporary directory, removed (recursively) on destruction.
class TempDir {
 public:
  TempDir() {
    std::string tmpl = (std::filesystem::temp_directory_path() /
                        "joinboost_test_XXXXXX")
                           .string();
    char* made = mkdtemp(tmpl.data());
    if (made == nullptr) {
      // Fail hard: continuing with an empty path would aim File() at "/".
      throw std::runtime_error("mkdtemp failed for " + tmpl);
    }
    path_ = made;
  }
  ~TempDir() {
    if (!path_.empty()) {
      std::error_code ec;  // best-effort cleanup; never throw from a dtor
      std::filesystem::remove_all(path_, ec);
    }
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  const std::string& path() const { return path_; }
  std::string File(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

/// EXPECT_PRED-style relative float comparison:
/// |a - b| <= tol * max(1, |a|, |b|).
inline ::testing::AssertionResult RelNear(double a, double b, double rel_tol) {
  double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  double diff = std::fabs(a - b);
  if (std::isnan(a) || std::isnan(b)) {
    return ::testing::AssertionFailure()
           << "NaN operand: a=" << a << " b=" << b;
  }
  if (diff <= rel_tol * scale) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "|" << a << " - " << b << "| = " << diff << " > " << rel_tol
         << " * " << scale;
}

/// Element-wise RelNear over two equal-length vectors.
inline ::testing::AssertionResult AllRelNear(const std::vector<double>& a,
                                             const std::vector<double>& b,
                                             double rel_tol) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "size mismatch: " << a.size() << " vs " << b.size();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    ::testing::AssertionResult r = RelNear(a[i], b[i], rel_tol);
    if (!r) return ::testing::AssertionFailure() << "index " << i << ": "
                                                 << r.message();
  }
  return ::testing::AssertionSuccess();
}

/// Build a small snowflake: fact(k1, k2, x0, y) ⋈ d1(k1, f1) ⋈ d2(k2, f2).
/// y is a noisy linear function of x0, f1 and f2 so trees have signal to fit.
inline void BuildSmallSnowflake(exec::Database* db, uint64_t seed,
                                size_t rows) {
  Rng rng(seed);
  const int64_t kD1 = 17, kD2 = 11;
  std::vector<int64_t> k1(rows), k2(rows);
  std::vector<double> x0(rows), y(rows);
  std::vector<int64_t> d1k(static_cast<size_t>(kD1)),
      d2k(static_cast<size_t>(kD2));
  std::vector<double> f1(static_cast<size_t>(kD1)),
      f2(static_cast<size_t>(kD2));
  for (int64_t i = 0; i < kD1; ++i) {
    d1k[static_cast<size_t>(i)] = i;
    f1[static_cast<size_t>(i)] = static_cast<double>(rng.NextInt(1, 1000));
  }
  for (int64_t i = 0; i < kD2; ++i) {
    d2k[static_cast<size_t>(i)] = i;
    f2[static_cast<size_t>(i)] = static_cast<double>(rng.NextInt(1, 1000));
  }
  for (size_t i = 0; i < rows; ++i) {
    k1[i] = rng.NextInt(0, kD1 - 1);
    k2[i] = rng.NextInt(0, kD2 - 1);
    x0[i] = rng.NextDouble() * 10;
    y[i] = 3.0 * x0[i] + 0.01 * f1[static_cast<size_t>(k1[i])] -
           0.02 * f2[static_cast<size_t>(k2[i])] + rng.NextGaussian();
  }
  db->RegisterTable(TableBuilder("fact")
                        .AddInts("k1", k1)
                        .AddInts("k2", k2)
                        .AddDoubles("x0", x0)
                        .AddDoubles("y", y)
                        .Build());
  db->RegisterTable(
      TableBuilder("d1").AddInts("k1", d1k).AddDoubles("f1", f1).Build());
  db->RegisterTable(
      TableBuilder("d2").AddInts("k2", d2k).AddDoubles("f2", f2).Build());
}

/// Dataset over the tables produced by BuildSmallSnowflake.
inline Dataset MakeSnowflakeDataset(exec::Database* db) {
  Dataset ds(db);
  ds.AddTable("fact", {"x0"}, "y");
  ds.AddTable("d1", {"f1"});
  ds.AddTable("d2", {"f2"});
  ds.AddJoin("fact", "d1", {"k1"});
  ds.AddJoin("fact", "d2", {"k2"});
  return ds;
}

/// Every field of every tree node equal, doubles bit for bit.
inline void ExpectModelsBitIdentical(const core::Ensemble& a,
                                     const core::Ensemble& b,
                                     const std::string& label) {
  auto bits = [](double x) {
    uint64_t u;
    std::memcpy(&u, &x, sizeof(u));
    return u;
  };
  ASSERT_EQ(a.trees.size(), b.trees.size()) << label;
  EXPECT_EQ(bits(a.base_score), bits(b.base_score)) << label;
  for (size_t t = 0; t < a.trees.size(); ++t) {
    const auto& ta = a.trees[t].nodes;
    const auto& tb = b.trees[t].nodes;
    ASSERT_EQ(ta.size(), tb.size()) << label << " tree " << t;
    for (size_t n = 0; n < ta.size(); ++n) {
      SCOPED_TRACE(label + " tree " + std::to_string(t) + " node " +
                   std::to_string(n));
      EXPECT_EQ(ta[n].is_leaf, tb[n].is_leaf);
      EXPECT_EQ(ta[n].feature, tb[n].feature);
      EXPECT_EQ(ta[n].relation, tb[n].relation);
      EXPECT_EQ(ta[n].categorical, tb[n].categorical);
      EXPECT_EQ(bits(ta[n].threshold), bits(tb[n].threshold));
      EXPECT_EQ(ta[n].category, tb[n].category);
      EXPECT_EQ(ta[n].category_str, tb[n].category_str);
      EXPECT_EQ(bits(ta[n].gain), bits(tb[n].gain));
      EXPECT_EQ(ta[n].left, tb[n].left);
      EXPECT_EQ(ta[n].right, tb[n].right);
      EXPECT_EQ(bits(ta[n].prediction), bits(tb[n].prediction));
      EXPECT_EQ(bits(ta[n].count), bits(tb[n].count));
      EXPECT_EQ(bits(ta[n].sum), bits(tb[n].sum));
    }
  }
}

/// Favorita generator config shrunk to integration-test size.
inline data::FavoritaConfig TinyFavorita() {
  data::FavoritaConfig config;
  config.sales_rows = 5000;
  config.num_items = 100;
  config.num_stores = 10;
  config.num_dates = 50;
  config.extra_features_per_dim = 1;
  return config;
}

}  // namespace test_util
}  // namespace joinboost
