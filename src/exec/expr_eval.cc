#include "exec/expr_eval.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "exec/morsel.h"
#include "exec/operators.h"
#include "sql/printer.h"
#include "util/hash.h"

namespace joinboost {
namespace exec {

/// The subquery's result rows, the build side of a semi-join probe. Integer
/// keys whose box is small index a presence array by their slot (the array
/// path); otherwise a probe row is a member when some result row with its
/// hash equals it cell by cell (RowsEqual), since hash equality alone never
/// decides. The hash table is built on first use, so a boxed set probed by
/// a float still answers.
struct InSubquerySet {
  std::vector<VectorData> keys;  ///< one per subquery result column
  size_t rows = 0;               ///< result rows
  std::vector<uint32_t> null_rows;  ///< result rows with a NULL key cell
  morsel::KeyBox box;
  std::vector<uint8_t> present;  ///< per box slot; empty unless boxed
  bool boxed = false;
  bool hashed = false;
  hash::JoinHashTable table;     ///< over the result rows' key hashes
};

namespace {

bool IsNumericBinary(const std::string& op) {
  return op == "+" || op == "-" || op == "*" || op == "/" || op == "%";
}

bool IsComparison(const std::string& op) {
  return op == "=" || op == "<>" || op == "<" || op == "<=" || op == ">" ||
         op == ">=";
}

double NullSafeToDouble(const VectorData& v, size_t i) {
  if (v.type == TypeId::kFloat64) return (*v.dbls)[i];
  int64_t x = (*v.ints)[i];
  if (x == kNullInt64) return NullFloat64();
  return static_cast<double>(x);
}

VectorData EvalNumericBinary(const std::string& op, const VectorData& l,
                             const VectorData& r, size_t rows) {
  bool as_double = l.type == TypeId::kFloat64 || r.type == TypeId::kFloat64 ||
                   op == "/";
  if (!as_double) {
    const auto& a = l.Ints();
    const auto& b = r.Ints();
    std::vector<int64_t> out(rows);
    for (size_t i = 0; i < rows; ++i) {
      int64_t x = a[i], y = b[i];
      if (x == kNullInt64 || y == kNullInt64) {
        out[i] = kNullInt64;
        continue;
      }
      if (op == "+") {
        out[i] = x + y;
      } else if (op == "-") {
        out[i] = x - y;
      } else if (op == "*") {
        out[i] = x * y;
      } else {  // "%"
        out[i] = y == 0 ? kNullInt64 : x % y;
      }
    }
    return VectorData::FromInts(std::move(out));
  }
  std::vector<double> out(rows);
  for (size_t i = 0; i < rows; ++i) {
    double x = NullSafeToDouble(l, i);
    double y = NullSafeToDouble(r, i);
    if (IsNullFloat64(x) || IsNullFloat64(y)) {
      out[i] = NullFloat64();
      continue;
    }
    if (op == "+") {
      out[i] = x + y;
    } else if (op == "-") {
      out[i] = x - y;
    } else if (op == "*") {
      out[i] = x * y;
    } else if (op == "/") {
      out[i] = y == 0.0 ? NullFloat64() : x / y;
    } else {  // "%"
      out[i] = std::fmod(x, y);
    }
  }
  return VectorData::FromDoubles(std::move(out));
}

VectorData EvalComparison(const std::string& op, const VectorData& l,
                          const VectorData& r, size_t rows) {
  std::vector<int64_t> out(rows);
  bool string_cmp = l.type == TypeId::kString && r.type == TypeId::kString;
  if (string_cmp && l.dict && r.dict && l.dict != r.dict) {
    // Different dictionaries: compare decoded strings (slow path).
    for (size_t i = 0; i < rows; ++i) {
      int64_t a = (*l.ints)[i];
      int64_t b = (*r.ints)[i];
      if (a == kNullInt64 || b == kNullInt64) {
        out[i] = 0;
        continue;
      }
      int c = l.dict->At(a).compare(r.dict->At(b));
      bool res = false;
      if (op == "=") res = c == 0;
      else if (op == "<>") res = c != 0;
      else if (op == "<") res = c < 0;
      else if (op == "<=") res = c <= 0;
      else if (op == ">") res = c > 0;
      else res = c >= 0;
      out[i] = res ? 1 : 0;
    }
    return VectorData::FromInts(std::move(out));
  }
  // Numeric / same-dict code comparison.
  for (size_t i = 0; i < rows; ++i) {
    double x = NullSafeToDouble(l, i);
    double y = NullSafeToDouble(r, i);
    if (IsNullFloat64(x) || IsNullFloat64(y)) {
      out[i] = 0;
      continue;
    }
    bool res = false;
    if (op == "=") res = x == y;
    else if (op == "<>") res = x != y;
    else if (op == "<") res = x < y;
    else if (op == "<=") res = x <= y;
    else if (op == ">") res = x > y;
    else res = x >= y;
    out[i] = res ? 1 : 0;
  }
  return VectorData::FromInts(std::move(out));
}

/// Translate a string literal to the dictionary code space of `other`.
VectorData BroadcastLiteralForColumn(const sql::Expr& lit, size_t rows,
                                     const VectorData* other) {
  if (lit.kind == sql::ExprKind::kStringLiteral && other &&
      other->type == TypeId::kString && other->dict) {
    int64_t code = other->dict->Find(lit.str_val);
    VectorData out;
    out.type = TypeId::kString;
    out.dict = other->dict;
    out.ints = std::make_shared<const std::vector<int64_t>>(
        std::vector<int64_t>(rows, code));
    return out;
  }
  switch (lit.kind) {
    case sql::ExprKind::kIntLiteral:
      return VectorData::FromInts(std::vector<int64_t>(rows, lit.int_val));
    case sql::ExprKind::kFloatLiteral:
      return VectorData::FromDoubles(std::vector<double>(rows, lit.float_val));
    case sql::ExprKind::kNullLiteral:
      return VectorData::FromDoubles(std::vector<double>(rows, NullFloat64()));
    case sql::ExprKind::kStringLiteral: {
      // String literal without dictionary context: build a private dict.
      auto dict = std::make_shared<Dictionary>();
      int64_t code = dict->GetOrAdd(lit.str_val);
      return VectorData::FromCodes(std::vector<int64_t>(rows, code), dict);
    }
    default:
      JB_THROW("not a literal");
  }
}

bool IsLiteral(const sql::Expr& e) {
  return e.kind == sql::ExprKind::kIntLiteral ||
         e.kind == sql::ExprKind::kFloatLiteral ||
         e.kind == sql::ExprKind::kStringLiteral ||
         e.kind == sql::ExprKind::kNullLiteral;
}

VectorData EvalFunc(const sql::Expr& e, const ExecTable& input,
                    EvalContext& ctx);

/// SQL truth of a boolean cell: NULL counts as false.
bool Truthy(int64_t c) { return c != 0 && c != kNullInt64; }

/// Copies the override vectors reachable in `e` (not below an overridden
/// node) at the rows `sel`.
void GatherOverrides(
    const sql::Expr& e,
    const std::unordered_map<const sql::Expr*, VectorData>& all,
    const std::vector<uint32_t>& sel,
    std::unordered_map<const sql::Expr*, VectorData>* out) {
  auto it = all.find(&e);
  if (it != all.end()) {
    out->emplace(&e, it->second.Gather(sel));
    return;
  }
  for (const auto& a : e.args) {
    if (a) GatherOverrides(*a, all, sel, out);
  }
}

/// `e` evaluated on the rows `sel` of `input` (ascending row ids; null =
/// every row). A strict subset is gathered first — only the columns `e` can
/// reference, and the override vectors of its subtree — so a CASE branch or
/// an AND operand costs in proportion to the rows that reach it. A subset
/// of zero rows still evaluates `e`: it still sets the result type and
/// still raises a name error.
VectorData EvalOnRows(const sql::Expr& e, const ExecTable& input,
                      const std::vector<uint32_t>* sel, EvalContext& ctx) {
  if (sel == nullptr || sel->size() == input.rows) {
    return EvalExpr(e, input, ctx);
  }
  ExecTable sub;
  sub.rows = sel->size();
  for (size_t c : morsel::UsedColumns(e, input)) {
    const ExecColumn& col = input.cols[c];
    sub.cols.push_back({col.qualifier, col.name, col.data.Gather(*sel)});
  }
  if (ctx.overrides.empty()) return EvalExpr(e, sub, ctx);
  // Overrides align with `input`'s rows: swap in their subsets for the
  // duration of the call.
  std::unordered_map<const sql::Expr*, VectorData> subset;
  GatherOverrides(e, ctx.overrides, *sel, &subset);
  ctx.overrides.swap(subset);  // `subset` now holds the outer overrides
  VectorData out;
  try {
    out = EvalExpr(e, sub, ctx);
  } catch (...) {
    ctx.overrides.swap(subset);
    throw;
  }
  ctx.overrides.swap(subset);
  return out;
}

/// CASE on selection vectors: WHEN p runs only on the rows no earlier WHEN
/// matched, THEN p only on the rows WHEN p matched, ELSE on the rest. The
/// result is a string over one dictionary when any THEN/ELSE branch is a
/// string (every other branch must then be a string or a NULL literal),
/// else double when any branch is double, else int; a row no branch covers
/// is NULL.
VectorData EvalCase(const sql::Expr& e, const ExecTable& input,
                    EvalContext& ctx) {
  const size_t rows = input.rows;
  const size_t pairs = (e.args.size() - (e.has_else ? 1 : 0)) / 2;
  std::vector<std::vector<uint32_t>> hits(pairs);
  std::vector<VectorData> vals(pairs);
  std::vector<uint32_t> rest_rows;
  const std::vector<uint32_t>* rest = nullptr;  // null = every row
  for (size_t p = 0; p < pairs; ++p) {
    VectorData cond = EvalOnRows(*e.args[2 * p], input, rest, ctx);
    const size_t n = rest ? rest->size() : rows;
    std::vector<uint32_t> missed;
    if (n > 0) {
      const auto& c = cond.Ints();
      for (size_t k = 0; k < n; ++k) {
        uint32_t row = rest ? (*rest)[k] : static_cast<uint32_t>(k);
        (Truthy(c[k]) ? hits[p] : missed).push_back(row);
      }
    }
    vals[p] = EvalOnRows(*e.args[2 * p + 1], input, &hits[p], ctx);
    rest_rows = std::move(missed);
    rest = &rest_rows;
  }
  VectorData else_val;
  if (e.has_else) else_val = EvalOnRows(*e.args.back(), input, rest, ctx);

  bool as_string = false, as_double = false, as_other = false;
  auto classify = [&](const VectorData& v, const sql::Expr& branch) {
    as_string |= v.type == TypeId::kString;
    as_double |= v.type == TypeId::kFloat64;
    as_other |= v.type != TypeId::kString &&
                branch.kind != sql::ExprKind::kNullLiteral;
  };
  for (size_t p = 0; p < pairs; ++p) classify(vals[p], *e.args[2 * p + 1]);
  if (e.has_else) classify(else_val, *e.args.back());
  JB_CHECK_MSG(!(as_string && as_other),
               "CASE mixes string and non-string results: " << sql::ToSql(e));
  DictionaryPtr dict;
  if (as_string) {
    // One dictionary for the result: each branch's codes are remapped into
    // it, and a NULL branch becomes NULL codes.
    dict = std::make_shared<Dictionary>();
    auto recode = [&](VectorData* v) {
      std::vector<int64_t> codes(v->size(), kNullInt64);
      if (v->type == TypeId::kString) {
        std::vector<int64_t> map(v->dict->size(), kNullInt64);
        const auto& src = v->Ints();
        for (size_t k = 0; k < src.size(); ++k) {
          if (src[k] == kNullInt64) continue;
          int64_t& to = map[static_cast<size_t>(src[k])];
          if (to == kNullInt64) to = dict->GetOrAdd(v->dict->At(src[k]));
          codes[k] = to;
        }
      }
      *v = VectorData::FromCodes(std::move(codes), dict);
    };
    for (auto& v : vals) recode(&v);
    if (e.has_else) recode(&else_val);
  }
  // Scatter each branch's values back to its rows.
  auto scatter = [&](auto* out, auto value_at) {
    for (size_t p = 0; p < pairs; ++p) {
      for (size_t k = 0; k < hits[p].size(); ++k) {
        (*out)[hits[p][k]] = value_at(vals[p], k);
      }
    }
    if (!e.has_else) return;
    const size_t n = rest ? rest->size() : rows;
    for (size_t k = 0; k < n; ++k) {
      (*out)[rest ? (*rest)[k] : k] = value_at(else_val, k);
    }
  };
  if (as_double && !as_string) {  // a string CASE's doubles are NULLs
    std::vector<double> out(rows, NullFloat64());
    scatter(&out, [](const VectorData& v, size_t k) {
      return NullSafeToDouble(v, k);
    });
    return VectorData::FromDoubles(std::move(out));
  }
  std::vector<int64_t> out(rows, kNullInt64);
  scatter(&out, [](const VectorData& v, size_t k) { return v.Ints()[k]; });
  if (as_string) return VectorData::FromCodes(std::move(out), dict);
  return VectorData::FromInts(std::move(out));
}

/// The membership set of IN node `e`, built on first use per distinct
/// subquery text (see EvalContext::in_sets). It takes the array path when
/// its keys fit a box of at most kBoxSlotsPerRow slots per result row and
/// probe row of the evaluation that builds it.
InSubquerySet& GetOrBuildInSubquerySet(const sql::Expr& e, size_t probe_rows,
                                       EvalContext& ctx) {
  auto by_node = ctx.in_sets.find(&e);
  if (by_node != ctx.in_sets.end()) return *by_node->second;
  std::string text = sql::ToSql(*e.subquery);
  auto by_sql = ctx.in_sets_by_sql.find(text);
  if (by_sql == ctx.in_sets_by_sql.end()) {
    JB_CHECK_MSG(ctx.run_subquery, "no subquery runner in context");
    ExecTable sub = ctx.run_subquery(*e.subquery);
    auto set = std::make_shared<InSubquerySet>();
    set->rows = sub.rows;
    std::vector<const VectorData*> keys;
    set->keys.reserve(sub.cols.size());
    for (auto& c : sub.cols) {
      set->keys.push_back(std::move(c.data));
      keys.push_back(&set->keys.back());
    }
    for (size_t r = 0; r < sub.rows; ++r) {
      for (const auto* k : keys) {
        if (k->IsNull(r)) {
          set->null_rows.push_back(static_cast<uint32_t>(r));
          break;
        }
      }
    }
    set->boxed = morsel::FitKeyBox(
        keys, sub.rows, /*null_slot=*/false,
        morsel::kBoxSlotsPerRow * (sub.rows + probe_rows), &set->box);
    if (set->boxed) {
      set->present.assign(set->box.size, 0);
      for (uint32_t s :
           morsel::BoxSlots(set->box, keys, sub.rows, OpContext{})) {
        if (s != morsel::kNoSlot) set->present[s] = 1;
      }
    }
    by_sql = ctx.in_sets_by_sql.emplace(std::move(text), std::move(set)).first;
  }
  ctx.in_sets.emplace(&e, by_sql->second);
  return *by_sql->second;
}

/// `probe [NOT] IN (SELECT ...)` and its row-value form `(p1, p2, ...)
/// [NOT] IN (SELECT c1, c2, ...)`: a semi-join probe of the subquery's
/// rows. A NULL in any probe column is never a member. NOT IN follows SQL:
/// true over an empty result, false for a member, and otherwise true only
/// when every result row differs from the probe in a column where both are
/// non-NULL (for one column: the probe is not NULL and the result holds no
/// NULL). Over zero rows the subquery does not run.
VectorData EvalInSubquery(const sql::Expr& e, const ExecTable& input,
                          EvalContext& ctx) {
  const size_t rows = input.rows;
  std::vector<VectorData> probes;
  probes.reserve(e.args.size());
  for (const auto& a : e.args) probes.push_back(EvalExpr(*a, input, ctx));
  if (rows == 0) return VectorData::FromInts({});
  InSubquerySet& set = GetOrBuildInSubquerySet(e, rows, ctx);
  JB_CHECK_MSG(set.keys.size() == probes.size(),
               "IN subquery returns " << set.keys.size() << " column(s) for "
                                      << probes.size() << " probe value(s)");
  // Both sides of an int64 = float64 column pair become doubles. The set's
  // cached table hashes its keys as they are, so a probe that changes them
  // gets a table of its own.
  std::vector<VectorData> as_doubles;
  as_doubles.reserve(probes.size());
  std::vector<const VectorData*> pk, bk;
  for (size_t i = 0; i < probes.size(); ++i) {
    const VectorData& key = set.keys[i];
    bk.push_back(&key);
    if (MixedNumericKeys(key, probes[i])) {
      as_doubles.push_back(AlignNumericKey(key, probes[i]));
      bk.back() = &as_doubles.back();
    }
    probes[i] = AlignNumericKey(AlignDictionary(probes[i], key), key);
    pk.push_back(&probes[i]);
  }
  auto null_probe = [&](size_t r) {
    for (const auto* p : pk) {
      if (p->IsNull(r)) return true;
    }
    return false;
  };
  // NOT IN for a probe row that is not a member of a non-empty result. A
  // result row without a NULL differs from a NULL-free probe in some column
  // already, so only NULLs need a look.
  auto not_in = [&](size_t r) {
    const bool probe_has_null = null_probe(r);
    if (!probe_has_null && set.null_rows.empty()) return true;
    auto differs = [&](size_t b) {
      for (size_t i = 0; i < pk.size(); ++i) {
        if (!pk[i]->IsNull(r) && !bk[i]->IsNull(b) &&
            !RowsEqual({pk[i]}, r, {bk[i]}, b)) {
          return true;
        }
      }
      return false;
    };
    if (probe_has_null) {
      for (size_t b = 0; b < set.rows; ++b) {
        if (!differs(b)) return false;
      }
      return true;
    }
    for (const uint32_t b : set.null_rows) {
      if (!differs(b)) return false;
    }
    return true;
  };
  auto answer = [&](size_t r, bool found) -> int64_t {
    if (!e.negated) return found ? 1 : 0;
    return !found && (set.rows == 0 || not_in(r)) ? 1 : 0;
  };
  std::vector<int64_t> out(rows);
  if (set.boxed && morsel::IntKeys(pk)) {
    // A NULL or out-of-box probe has no slot.
    std::vector<uint32_t> slots = morsel::BoxSlots(set.box, pk, rows,
                                                   OpContext{});
    for (size_t r = 0; r < rows; ++r) {
      out[r] = answer(r, slots[r] != morsel::kNoSlot && set.present[slots[r]]);
    }
    return VectorData::FromInts(std::move(out));
  }
  hash::JoinHashTable own_table;
  const hash::JoinHashTable* table = &set.table;
  if (!as_doubles.empty()) {
    std::vector<uint64_t> hashes = morsel::HashKeys(bk, set.rows, OpContext{});
    own_table.Build(hashes.data(), set.rows);
    table = &own_table;
  } else if (!set.hashed) {
    std::vector<uint64_t> hashes = morsel::HashKeys(bk, set.rows, OpContext{});
    set.table.Build(hashes.data(), set.rows);
    set.hashed = true;
  }
  std::vector<uint64_t> hashes = morsel::HashKeys(pk, rows, OpContext{});
  for (size_t r = 0; r < rows; ++r) {
    bool found = false;
    if (!null_probe(r)) {
      for (uint32_t b = table->Probe(hashes[r]); b != hash::kInvalidIndex;
           b = table->Next(b)) {
        if (RowsEqual(pk, r, bk, b)) {
          found = true;
          break;
        }
      }
    }
    out[r] = answer(r, found);
  }
  return VectorData::FromInts(std::move(out));
}

std::atomic<size_t> g_in_list_translations{0};

}  // namespace

size_t InListTranslations() { return g_in_list_translations.load(); }
void ResetInListTranslations() { g_in_list_translations.store(0); }

const InListSet& GetOrBuildInListSet(const sql::Expr& e, TypeId probe_type,
                                     const Dictionary* dict, EvalContext& ctx) {
  auto key = std::make_pair(&e, probe_type == TypeId::kString ? dict : nullptr);
  auto cached = ctx.list_sets.find(key);
  if (cached != ctx.list_sets.end()) return *cached->second;

  auto ls = std::make_shared<InListSet>();
  ls->as_double = probe_type == TypeId::kFloat64;
  auto s = std::make_shared<hash::ValueSet>(e.args.size() - 1);
  bool translated = false;
  for (size_t a = 1; a < e.args.size(); ++a) {
    const sql::Expr& lit = *e.args[a];
    if (lit.kind == sql::ExprKind::kNullLiteral) {
      ls->has_null = true;
      continue;
    }
    int64_t member;
    if (probe_type == TypeId::kString && dict != nullptr &&
        lit.kind == sql::ExprKind::kStringLiteral) {
      member = dict->Find(lit.str_val);
      translated = true;
    } else if (ls->as_double) {
      double d = lit.kind == sql::ExprKind::kFloatLiteral
                     ? lit.float_val
                     : static_cast<double>(lit.int_val);
      std::memcpy(&member, &d, 8);
    } else {
      member = lit.kind == sql::ExprKind::kFloatLiteral
                   ? static_cast<int64_t>(lit.float_val)
                   : lit.int_val;
    }
    s->Insert(static_cast<uint64_t>(member));
    // Bounds over int64 members only; kNullInt64 (absent dictionary string)
    // can never match a probe value, so it does not widen the range.
    if (!ls->as_double && member != kNullInt64) {
      if (!ls->has_bounds) {
        ls->min_value = ls->max_value = member;
        ls->has_bounds = true;
      } else {
        ls->min_value = std::min(ls->min_value, member);
        ls->max_value = std::max(ls->max_value, member);
      }
    }
  }
  if (translated) g_in_list_translations.fetch_add(1);
  ls->set = std::move(s);
  return *ctx.list_sets.emplace(key, std::move(ls)).first->second;
}

VectorData EvalExpr(const sql::Expr& e, const ExecTable& input,
                    EvalContext& ctx) {
  auto ov = ctx.overrides.find(&e);
  if (ov != ctx.overrides.end()) return ov->second;

  const size_t rows = input.rows;
  switch (e.kind) {
    case sql::ExprKind::kColumnRef: {
      int idx = input.FindRequired(e.table, e.column);
      return input.cols[static_cast<size_t>(idx)].data;
    }
    case sql::ExprKind::kIntLiteral:
    case sql::ExprKind::kFloatLiteral:
    case sql::ExprKind::kStringLiteral:
    case sql::ExprKind::kNullLiteral:
      return BroadcastLiteralForColumn(e, rows, nullptr);
    case sql::ExprKind::kBinary: {
      const std::string& op = e.op;
      if (op == "AND") {
        // The right operand runs only on the rows the left one passed.
        VectorData l = EvalExpr(*e.args[0], input, ctx);
        const auto& a = l.Ints();
        std::vector<uint32_t> passed;
        for (size_t i = 0; i < rows; ++i) {
          if (Truthy(a[i])) passed.push_back(static_cast<uint32_t>(i));
        }
        VectorData r = EvalOnRows(*e.args[1], input, &passed, ctx);
        const auto& b = r.Ints();
        std::vector<int64_t> out(rows, 0);
        for (size_t k = 0; k < passed.size(); ++k) {
          out[passed[k]] = Truthy(b[k]) ? 1 : 0;
        }
        return VectorData::FromInts(std::move(out));
      }
      if (op == "OR") {
        VectorData l = EvalExpr(*e.args[0], input, ctx);
        VectorData r = EvalExpr(*e.args[1], input, ctx);
        const auto& a = l.Ints();
        const auto& b = r.Ints();
        std::vector<int64_t> out(rows);
        for (size_t i = 0; i < rows; ++i) {
          out[i] = (Truthy(a[i]) || Truthy(b[i])) ? 1 : 0;
        }
        return VectorData::FromInts(std::move(out));
      }
      // Dictionary-aware literal handling for string comparisons.
      VectorData l, r;
      if (IsLiteral(*e.args[0]) && !IsLiteral(*e.args[1])) {
        r = EvalExpr(*e.args[1], input, ctx);
        l = BroadcastLiteralForColumn(*e.args[0], rows, &r);
      } else if (IsLiteral(*e.args[1]) && !IsLiteral(*e.args[0])) {
        l = EvalExpr(*e.args[0], input, ctx);
        r = BroadcastLiteralForColumn(*e.args[1], rows, &l);
      } else {
        l = EvalExpr(*e.args[0], input, ctx);
        r = EvalExpr(*e.args[1], input, ctx);
      }
      if (IsNumericBinary(op)) return EvalNumericBinary(op, l, r, rows);
      if (IsComparison(op)) return EvalComparison(op, l, r, rows);
      JB_THROW("unknown binary operator " << op);
    }
    case sql::ExprKind::kUnary: {
      VectorData v = EvalExpr(*e.args[0], input, ctx);
      if (e.op == "NOT") {
        const auto& a = v.Ints();
        std::vector<int64_t> out(rows);
        for (size_t i = 0; i < rows; ++i) {
          out[i] = (a[i] == 0) ? 1 : 0;
        }
        return VectorData::FromInts(std::move(out));
      }
      // unary minus
      if (v.type == TypeId::kFloat64) {
        std::vector<double> out(rows);
        const auto& a = v.Dbls();
        for (size_t i = 0; i < rows; ++i) out[i] = -a[i];
        return VectorData::FromDoubles(std::move(out));
      }
      std::vector<int64_t> out(rows);
      const auto& a = v.Ints();
      for (size_t i = 0; i < rows; ++i) {
        out[i] = a[i] == kNullInt64 ? kNullInt64 : -a[i];
      }
      return VectorData::FromInts(std::move(out));
    }
    case sql::ExprKind::kFuncCall:
      return EvalFunc(e, input, ctx);
    case sql::ExprKind::kCase:
      return EvalCase(e, input, ctx);
    case sql::ExprKind::kInSubquery: {
      if (e.args.empty()) {
        // Scalar subquery: run once per context, broadcast the value.
        auto it = ctx.scalar_subqueries.find(&e);
        if (it == ctx.scalar_subqueries.end()) {
          JB_CHECK_MSG(ctx.run_subquery, "no subquery runner in context");
          ExecTable sub = ctx.run_subquery(*e.subquery);
          JB_CHECK_MSG(sub.rows == 1 && sub.cols.size() == 1,
                       "scalar subquery must return 1x1");
          it = ctx.scalar_subqueries.emplace(&e, sub.cols[0].data).first;
        }
        const VectorData& v = it->second;
        if (v.type == TypeId::kFloat64) {
          return VectorData::FromDoubles(
              std::vector<double>(rows, (*v.dbls)[0]));
        }
        return VectorData::FromInts(std::vector<int64_t>(rows, (*v.ints)[0]));
      }
      return EvalInSubquery(e, input, ctx);
    }
    case sql::ExprKind::kInList: {
      VectorData probe = EvalExpr(*e.args[0], input, ctx);
      const InListSet& ls = GetOrBuildInListSet(
          e, probe.type,
          probe.type == TypeId::kString ? probe.dict.get() : nullptr, ctx);
      const bool as_double = ls.as_double;
      const std::shared_ptr<const hash::ValueSet>& set = ls.set;
      std::vector<int64_t> out(rows);
      for (size_t i = 0; i < rows; ++i) {
        const bool null_probe = probe.IsNull(i);
        bool found = false;
        if (null_probe) {
          // a NULL is never a member
        } else if (as_double) {
          double d = (*probe.dbls)[i];
          int64_t bits;
          std::memcpy(&bits, &d, 8);
          found = set->Contains(static_cast<uint64_t>(bits));
        } else {
          found = set->Contains(static_cast<uint64_t>((*probe.ints)[i]));
        }
        const bool holds =
            e.negated ? NotInList(found, null_probe, ls) : found;
        out[i] = holds ? 1 : 0;
      }
      return VectorData::FromInts(std::move(out));
    }
    case sql::ExprKind::kIsNull: {
      VectorData v = EvalExpr(*e.args[0], input, ctx);
      std::vector<int64_t> out(rows);
      for (size_t i = 0; i < rows; ++i) {
        out[i] = (v.IsNull(i) != e.negated) ? 1 : 0;
      }
      return VectorData::FromInts(std::move(out));
    }
    case sql::ExprKind::kStar:
      JB_THROW("'*' is only valid inside COUNT(*) or SELECT *");
    case sql::ExprKind::kAggCall:
      JB_THROW("aggregate outside GROUP BY evaluation: " << e.op);
    case sql::ExprKind::kWindowAgg:
      JB_THROW("window aggregate must be pre-computed by the operator");
  }
  JB_THROW("unhandled expression kind");
}

namespace {

VectorData EvalFunc(const sql::Expr& e, const ExecTable& input,
                    EvalContext& ctx) {
  const size_t rows = input.rows;
  const std::string& f = e.op;
  auto unary_double = [&](double (*fn)(double)) {
    VectorData v = EvalExpr(*e.args[0], input, ctx);
    std::vector<double> out(rows);
    for (size_t i = 0; i < rows; ++i) {
      double x = NullSafeToDouble(v, i);
      out[i] = IsNullFloat64(x) ? NullFloat64() : fn(x);
    }
    return VectorData::FromDoubles(std::move(out));
  };
  if (f == "LOG" || f == "LN") {
    return unary_double([](double x) { return std::log(x); });
  }
  if (f == "EXP") return unary_double([](double x) { return std::exp(x); });
  if (f == "SQRT") return unary_double([](double x) { return std::sqrt(x); });
  if (f == "ABS") return unary_double([](double x) { return std::fabs(x); });
  if (f == "SIGN") {
    return unary_double(
        [](double x) { return x > 0 ? 1.0 : (x < 0 ? -1.0 : 0.0); });
  }
  if (f == "FLOOR") {
    VectorData v = EvalExpr(*e.args[0], input, ctx);
    std::vector<int64_t> out(rows);
    for (size_t i = 0; i < rows; ++i) {
      double x = NullSafeToDouble(v, i);
      out[i] = IsNullFloat64(x) ? kNullInt64
                                : static_cast<int64_t>(std::floor(x));
    }
    return VectorData::FromInts(std::move(out));
  }
  if (f == "CEIL") {
    VectorData v = EvalExpr(*e.args[0], input, ctx);
    std::vector<int64_t> out(rows);
    for (size_t i = 0; i < rows; ++i) {
      double x = NullSafeToDouble(v, i);
      out[i] =
          IsNullFloat64(x) ? kNullInt64 : static_cast<int64_t>(std::ceil(x));
    }
    return VectorData::FromInts(std::move(out));
  }
  if (f == "INT") {
    VectorData v = EvalExpr(*e.args[0], input, ctx);
    std::vector<int64_t> out(rows);
    for (size_t i = 0; i < rows; ++i) {
      double x = NullSafeToDouble(v, i);
      out[i] = IsNullFloat64(x) ? kNullInt64 : static_cast<int64_t>(x);
    }
    return VectorData::FromInts(std::move(out));
  }
  if (f == "POW" || f == "POWER") {
    VectorData a = EvalExpr(*e.args[0], input, ctx);
    VectorData b = EvalExpr(*e.args[1], input, ctx);
    std::vector<double> out(rows);
    for (size_t i = 0; i < rows; ++i) {
      out[i] = std::pow(NullSafeToDouble(a, i), NullSafeToDouble(b, i));
    }
    return VectorData::FromDoubles(std::move(out));
  }
  if (f == "MOD") {
    VectorData a = EvalExpr(*e.args[0], input, ctx);
    VectorData b = EvalExpr(*e.args[1], input, ctx);
    std::vector<int64_t> out(rows);
    const auto& x = a.Ints();
    const auto& y = b.Ints();
    for (size_t i = 0; i < rows; ++i) {
      if (x[i] == kNullInt64 || y[i] == kNullInt64 || y[i] == 0) {
        out[i] = kNullInt64;
      } else {
        int64_t m = x[i] % y[i];
        out[i] = m < 0 ? m + std::abs(y[i]) : m;
      }
    }
    return VectorData::FromInts(std::move(out));
  }
  if (f == "HASH") {
    // HASH(x[, seed]) — deterministic 63-bit hash; used for RF row sampling.
    VectorData a = EvalExpr(*e.args[0], input, ctx);
    int64_t seed = 0;
    if (e.args.size() > 1 && e.args[1]->kind == sql::ExprKind::kIntLiteral) {
      seed = e.args[1]->int_val;
    }
    std::vector<int64_t> out(rows);
    const auto& x = a.Ints();
    for (size_t i = 0; i < rows; ++i) {
      out[i] = static_cast<int64_t>(
          SplitMix64(static_cast<uint64_t>(x[i]) ^
                     SplitMix64(static_cast<uint64_t>(seed))) >>
          1);
    }
    return VectorData::FromInts(std::move(out));
  }
  if (f == "COALESCE") {
    std::vector<VectorData> vs;
    vs.reserve(e.args.size());
    for (const auto& a : e.args) vs.push_back(EvalExpr(*a, input, ctx));
    bool as_double = false;
    for (const auto& v : vs) as_double |= v.type == TypeId::kFloat64;
    if (as_double) {
      std::vector<double> out(rows, NullFloat64());
      for (size_t i = 0; i < rows; ++i) {
        for (const auto& v : vs) {
          double x = NullSafeToDouble(v, i);
          if (!IsNullFloat64(x)) {
            out[i] = x;
            break;
          }
        }
      }
      return VectorData::FromDoubles(std::move(out));
    }
    std::vector<int64_t> out(rows, kNullInt64);
    for (size_t i = 0; i < rows; ++i) {
      for (const auto& v : vs) {
        int64_t x = v.Ints()[i];
        if (x != kNullInt64) {
          out[i] = x;
          break;
        }
      }
    }
    return VectorData::FromInts(std::move(out));
  }
  if (f == "GREATEST" || f == "LEAST") {
    VectorData a = EvalExpr(*e.args[0], input, ctx);
    VectorData b = EvalExpr(*e.args[1], input, ctx);
    std::vector<double> out(rows);
    for (size_t i = 0; i < rows; ++i) {
      double x = NullSafeToDouble(a, i);
      double y = NullSafeToDouble(b, i);
      out[i] = f == "GREATEST" ? std::max(x, y) : std::min(x, y);
    }
    return VectorData::FromDoubles(std::move(out));
  }
  JB_THROW("unknown function " << f);
}

}  // namespace

Value EvalScalar(const sql::Expr& e, const ExecTable& input, size_t row,
                 EvalContext& ctx) {
  switch (e.kind) {
    case sql::ExprKind::kColumnRef: {
      int idx = input.FindRequired(e.table, e.column);
      return input.cols[static_cast<size_t>(idx)].data.GetValue(row);
    }
    case sql::ExprKind::kIntLiteral:
      return Value::Int(e.int_val);
    case sql::ExprKind::kFloatLiteral:
      return Value::Double(e.float_val);
    case sql::ExprKind::kStringLiteral:
      return Value::Str(e.str_val);
    case sql::ExprKind::kNullLiteral:
      return Value::Null(TypeId::kFloat64);
    case sql::ExprKind::kBinary: {
      const std::string& op = e.op;
      Value l = EvalScalar(*e.args[0], input, row, ctx);
      if (op == "AND") {
        bool lx = !l.null && l.AsDouble() != 0;
        if (!lx) return Value::Int(0);
        Value r = EvalScalar(*e.args[1], input, row, ctx);
        return Value::Int(!r.null && r.AsDouble() != 0 ? 1 : 0);
      }
      if (op == "OR") {
        bool lx = !l.null && l.AsDouble() != 0;
        if (lx) return Value::Int(1);
        Value r = EvalScalar(*e.args[1], input, row, ctx);
        return Value::Int(!r.null && r.AsDouble() != 0 ? 1 : 0);
      }
      Value r = EvalScalar(*e.args[1], input, row, ctx);
      if (l.null || r.null) {
        if (IsComparison(op)) return Value::Int(0);
        return Value::Null(TypeId::kFloat64);
      }
      if (l.type == TypeId::kString && r.type == TypeId::kString &&
          IsComparison(op)) {
        int c = l.s.compare(r.s);
        bool res = (op == "=" && c == 0) || (op == "<>" && c != 0) ||
                   (op == "<" && c < 0) || (op == "<=" && c <= 0) ||
                   (op == ">" && c > 0) || (op == ">=" && c >= 0);
        return Value::Int(res ? 1 : 0);
      }
      double x = l.AsDouble();
      double y = r.AsDouble();
      if (IsComparison(op)) {
        bool res = (op == "=" && x == y) || (op == "<>" && x != y) ||
                   (op == "<" && x < y) || (op == "<=" && x <= y) ||
                   (op == ">" && x > y) || (op == ">=" && x >= y);
        return Value::Int(res ? 1 : 0);
      }
      bool as_double = l.type == TypeId::kFloat64 ||
                       r.type == TypeId::kFloat64 || op == "/";
      double v = 0;
      if (op == "+") v = x + y;
      else if (op == "-") v = x - y;
      else if (op == "*") v = x * y;
      else if (op == "/") v = y == 0 ? NullFloat64() : x / y;
      else if (op == "%") v = std::fmod(x, y);
      if (as_double) return Value::Double(v);
      return Value::Int(static_cast<int64_t>(v));
    }
    case sql::ExprKind::kUnary: {
      Value v = EvalScalar(*e.args[0], input, row, ctx);
      if (e.op == "NOT") {
        return Value::Int((v.null || v.AsDouble() == 0) ? 1 : 0);
      }
      if (v.null) return v;
      if (v.type == TypeId::kFloat64) return Value::Double(-v.d);
      return Value::Int(-v.i);
    }
    case sql::ExprKind::kIsNull: {
      Value v = EvalScalar(*e.args[0], input, row, ctx);
      return Value::Int((v.null != e.negated) ? 1 : 0);
    }
    default: {
      // Fall back to a vectorized evaluation over a single gathered row.
      ExecTable one = input.GatherRows({static_cast<uint32_t>(row)});
      VectorData v = EvalExpr(e, one, ctx);
      return v.GetValue(0);
    }
  }
}

std::vector<uint32_t> EvalPredicate(const sql::Expr& e, const ExecTable& input,
                                    EvalContext& ctx, bool row_mode) {
  std::vector<uint32_t> out;
  if (row_mode) {
    // Tuple-at-a-time evaluation: the genuine cost structure of row engines.
    for (size_t i = 0; i < input.rows; ++i) {
      Value v = EvalScalar(e, input, i, ctx);
      if (!v.null && v.AsDouble() != 0) out.push_back(static_cast<uint32_t>(i));
    }
    return out;
  }
  VectorData v = EvalExpr(e, input, ctx);
  const auto& a = v.Ints();
  out.reserve(input.rows / 4);
  for (size_t i = 0; i < input.rows; ++i) {
    if (a[i] != 0 && a[i] != kNullInt64) out.push_back(static_cast<uint32_t>(i));
  }
  return out;
}

void CollectAggregates(const sql::ExprPtr& e,
                       std::vector<const sql::Expr*>* out) {
  if (!e) return;
  if (e->kind == sql::ExprKind::kAggCall) {
    out->push_back(e.get());
    return;  // no nested aggregates
  }
  if (e->kind == sql::ExprKind::kWindowAgg) return;
  for (const auto& a : e->args) CollectAggregates(a, out);
}

void CollectWindows(const sql::ExprPtr& e,
                    std::vector<const sql::Expr*>* out) {
  if (!e) return;
  if (e->kind == sql::ExprKind::kWindowAgg) {
    out->push_back(e.get());
    return;
  }
  for (const auto& a : e->args) CollectWindows(a, out);
}

}  // namespace exec
}  // namespace joinboost
