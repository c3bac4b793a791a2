#include "factor/message_passing.h"

#include <algorithm>
#include <sstream>

#include "semiring/sql_gen.h"
#include "util/check.h"

namespace joinboost {
namespace factor {

using semiring::VarianceSqlGen;

namespace {

std::string JoinKeysCondition(const std::string& left_alias,
                              const std::string& right_alias,
                              const std::vector<std::string>& keys) {
  std::string out;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i) out += " AND ";
    out += left_alias + "." + keys[i] + " = " + right_alias + "." + keys[i];
  }
  return out;
}

std::string ConjunctionSql(const std::vector<std::string>& preds) {
  std::string out;
  for (size_t i = 0; i < preds.size(); ++i) {
    if (i) out += " AND ";
    out += "(" + preds[i] + ")";
  }
  return out;
}

std::string KeysList(const std::vector<std::string>& keys,
                     const std::string& alias = "") {
  std::string out;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i) out += ", ";
    if (!alias.empty()) out += alias + ".";
    out += keys[i];
  }
  return out;
}

/// A histogram shares its relation's scan only from this many rows up. Below
/// it the scan saved is cheaper than materializing the histogram's groups in
/// the shared table and reading them back (a continuous feature has about one
/// group per row): on a 3,000-row TPC-DS star merging slowed training by
/// about 10%, from 30,000 rows up it sped it up.
constexpr size_t kSharedHistogramMinRows = 8192;

/// Output names of a message's aggregates: c, then s and q when present.
std::string SumColumns(size_t num_sums) {
  static const char* kNames[] = {"c", "s", "q"};
  JB_CHECK(num_sums >= 1 && num_sums <= 3);
  std::string out = kNames[0];
  for (size_t i = 1; i < num_sums; ++i) out += std::string(", ") + kNames[i];
  return out;
}

/// ⊗-operand of a base relation: its count column only if it has one, its
/// s and q columns only if it is annotated.
semiring::SqlOperand RelationOperand(const RelationBinding& b) {
  semiring::SqlOperand op;
  op.alias = b.table;
  if (b.has_c) op.c_col = b.c_col;
  if (b.annotated) {
    op.s_col = b.s_col;
    op.q_col = b.q_col;
  }
  return op;
}

/// ⊗-operand of a full message: c, plus s and q when it carries them.
semiring::SqlOperand MessageOperand(const Message& m) {
  return {m.table, "c", m.has_s ? "s" : "", m.has_q ? "q" : ""};
}

}  // namespace

bool PredicateSet::AnyIn(const std::vector<int>& rels) const {
  for (int r : rels) {
    auto it = preds_.find(r);
    if (it != preds_.end() && !it->second.empty()) return true;
  }
  return false;
}

std::string PredicateSet::Signature(const std::vector<int>& rels) const {
  std::ostringstream os;
  for (int r : rels) {
    auto it = preds_.find(r);
    if (it == preds_.end() || it->second.empty()) continue;
    os << r << ":";
    for (const auto& p : it->second) os << p << ";";
    os << "|";
  }
  return os.str();
}

Factorizer::Factorizer(exec::Database* db, const graph::JoinGraph* graph,
                       FactorizerOptions options)
    : db_(db), graph_(graph), options_(std::move(options)) {
  bindings_.resize(graph_->num_relations());
  epochs_.assign(graph_->num_relations(), 0);
}

Factorizer::~Factorizer() {
  for (const auto& t : owned_tables_) db_->catalog().DropIfExists(t);
}

void Factorizer::BindRelation(int rel, RelationBinding binding) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  bindings_.at(static_cast<size_t>(rel)) = std::move(binding);
}

void Factorizer::BumpEpoch(int rel) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  ++epochs_.at(static_cast<size_t>(rel));
  // Cached messages keyed on stale epochs are now unreachable; drop their
  // tables lazily when the cache is cleared. (Table space is reclaimed by
  // ClearCache() / destructor.)
}

const std::vector<int>& Factorizer::SubtreeRels(int u, int v) {
  std::string key = std::to_string(u) + "_" + std::to_string(v);
  auto it = subtree_cache_.find(key);
  if (it != subtree_cache_.end()) return it->second;
  std::vector<int> rels;
  std::vector<int> stack = {u};
  std::vector<bool> seen(graph_->num_relations(), false);
  seen[static_cast<size_t>(u)] = true;
  if (v >= 0) seen[static_cast<size_t>(v)] = true;
  while (!stack.empty()) {
    int r = stack.back();
    stack.pop_back();
    rels.push_back(r);
    for (auto [n, e] : graph_->Neighbors(r)) {
      (void)e;
      if (!seen[static_cast<size_t>(n)]) {
        seen[static_cast<size_t>(n)] = true;
        stack.push_back(n);
      }
    }
  }
  std::sort(rels.begin(), rels.end());
  return subtree_cache_.emplace(key, std::move(rels)).first->second;
}

bool Factorizer::SelectionPath(int from, int to) {
  for (int r : SubtreeRels(from, to)) {
    if (bindings_[static_cast<size_t>(r)].annotated) return false;
  }
  // Every relation's edge toward `to` must find it unique on its own side.
  std::vector<std::pair<int, int>> stack = {{from, to}};
  while (!stack.empty()) {
    auto [cur, par] = stack.back();
    stack.pop_back();
    for (auto [n, e] : graph_->Neighbors(cur)) {
      if (n != par) {
        stack.emplace_back(n, cur);
        continue;
      }
      const graph::Edge& ed = graph_->edges()[static_cast<size_t>(e)];
      if (!((ed.a == cur) ? ed.unique_a : ed.unique_b)) return false;
    }
  }
  return true;
}

bool Factorizer::RefComplete(int from, int to,
                             const std::vector<std::string>& keys) {
  const std::pair<int, int> key(from, to);
  auto it = ref_complete_cache_.find(key);
  if (it != ref_complete_cache_.end()) return it->second;
  const std::string& from_tbl = binding(from).table;
  const std::string& to_tbl = binding(to).table;
  std::string sql = "SELECT COUNT(*) AS c FROM " + to_tbl + " ANTI JOIN " +
                    from_tbl + " ON " +
                    JoinKeysCondition(to_tbl, from_tbl, keys);
  double missing = db_->QueryScalarDouble(sql, "setup");
  bool complete = missing == 0.0;
  ref_complete_cache_.emplace(key, complete);
  return complete;
}

void Factorizer::AdoptRefComplete(
    const std::map<std::pair<int, int>, bool>& answers) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  ref_complete_cache_.insert(answers.begin(), answers.end());
}

void Factorizer::CheckRefCompleteInto(int to) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  for (auto [n, e] : graph_->Neighbors(to)) {
    if (SelectionPath(n, to)) {
      RefComplete(n, to, graph_->edges()[static_cast<size_t>(e)].keys);
    }
  }
}

std::string Factorizer::CacheKey(const char* prefix, int from, int to,
                                 const PredicateSet& preds, bool borrowed) {
  std::ostringstream os;
  os << prefix << "|" << from << ">" << to;
  auto side = [&](const std::vector<int>& rels) {
    os << "|" << preds.Signature(rels) << "|";
    for (int r : rels) os << epochs_[static_cast<size_t>(r)] << ",";
  };
  side(SubtreeRels(from, to));
  os << "|q" << options_.track_q;
  if (borrowed) {
    os << "|to";
    side(SubtreeRels(to, from));
  }
  return os.str();
}

std::string Factorizer::NewTempName() {
  return options_.temp_prefix + std::to_string(temp_counter_++);
}

Message Factorizer::GetSelector(int from, int to, const PredicateSet& preds,
                                const std::string& tag) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  const std::vector<int>& rels = SubtreeRels(from, to);
  if (!preds.AnyIn(rels)) return Message{};  // kNone

  std::string key = CacheKey("sel", from, to, preds);
  if (options_.cache_messages) {
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++cache_hits_;
      return it->second;
    }
  }
  ++cache_misses_;

  // Find the connecting edge from->to for the key attributes.
  int edge_idx = -1;
  for (auto [n, e] : graph_->Neighbors(from)) {
    if (n == to) {
      edge_idx = e;
      break;
    }
  }
  JB_CHECK_MSG(edge_idx >= 0, "no edge between relations " << from << " and "
                                                           << to);
  const auto& keys = graph_->edges()[static_cast<size_t>(edge_idx)].keys;

  const std::string& tbl = binding(from).table;
  std::ostringstream sql;
  std::string name = NewTempName();
  sql << "CREATE TABLE " << name << " AS SELECT DISTINCT "
      << KeysList(keys, tbl) << " FROM " << tbl;
  // Child selectors become semi-joins.
  for (auto [n, e] : graph_->Neighbors(from)) {
    if (n == to) continue;
    Message child = GetSelector(n, from, preds, tag);
    if (child.kind == Message::Kind::kNone) continue;
    JB_CHECK(child.kind == Message::Kind::kSelection);
    sql << " SEMI JOIN " << child.table << " ON "
        << JoinKeysCondition(tbl, child.table, child.keys);
    (void)e;
  }
  const auto* own = preds.For(from);
  if (own && !own->empty()) sql << " WHERE " << ConjunctionSql(*own);

  db_->Execute(sql.str(), tag);
  owned_tables_.push_back(name);
  ++messages_materialized_;

  Message msg;
  msg.kind = Message::Kind::kSelection;
  msg.table = name;
  msg.keys = keys;
  if (options_.cache_messages) cache_.emplace(key, msg);
  return msg;
}

Message Factorizer::GetMessage(int from, int to, const PredicateSet& preds,
                               const std::string& tag) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  try {
    Message msg = PlanMessage(from, to, preds, tag);
    Flush(tag, nullptr, nullptr);
    return msg;
  } catch (...) {
    DiscardPending();
    throw;
  }
}

Message Factorizer::PlanMessage(int from, int to, const PredicateSet& preds,
                                const std::string& tag) {
  const std::vector<int>& rels = SubtreeRels(from, to);

  // Edge keys between from and to.
  int edge_idx = -1;
  for (auto [n, e] : graph_->Neighbors(from)) {
    if (n == to) {
      edge_idx = e;
      break;
    }
  }
  JB_CHECK_MSG(edge_idx >= 0, "no edge between relations " << from << " and "
                                                           << to);
  const graph::Edge& edge = graph_->edges()[static_cast<size_t>(edge_idx)];
  const auto& keys = edge.keys;

  // Identity-path test (Appendix D.2): only on a selection path do join
  // multiplicities stay 1, so that dropping the message (or reducing it to a
  // semi-join) preserves annotations.
  const bool identity = SelectionPath(from, to);
  if (identity) {
    if (!preds.AnyIn(rels)) {
      // No predicates: droppable only if no join along the subtree can
      // filter its parent (referential completeness on every edge).
      std::vector<std::pair<int, int>> stack = {{from, to}};
      bool subtree_complete = RefComplete(from, to, keys);
      while (!stack.empty() && subtree_complete) {
        auto [cur, par] = stack.back();
        stack.pop_back();
        for (auto [n, e] : graph_->Neighbors(cur)) {
          if (n == par) continue;
          const graph::Edge& ed = graph_->edges()[static_cast<size_t>(e)];
          if (!RefComplete(n, cur, ed.keys)) {
            subtree_complete = false;
            break;
          }
          stack.emplace_back(n, cur);
        }
      }
      if (subtree_complete) return Message{};  // kNone
      // Incomplete keys without predicates: fall through to a full message
      // (counts are all 1, but the filtering effect must be preserved).
    } else {
      // Predicated identity path → semi-join selection message (§5.3.1).
      return GetSelector(from, to, preds, tag);
    }
  }

  // Full semi-ring message. A miss whose target side is a selection path
  // carrying predicates also semi-joins the target's own selector (borrows
  // it), so its input is that of the other messages from `from` and Flush
  // computes it in their shared scan. The selector holds this message's
  // group keys, so it drops only groups that the target side's absorption
  // drops anyway. Without the cache each selector is a fresh table, the
  // inputs differ anyway, and nothing is borrowed.
  const bool borrow = options_.cache_messages &&
                      preds.AnyIn(SubtreeRels(to, from)) &&
                      SelectionPath(to, from);
  // The plain key first: a parent's message, computed before the target
  // side was predicated, holds every group and still serves. A borrowed
  // message is keyed on the target side's predicates too. So is any message
  // whose input joins a borrowed one: the borrowed side holds its target
  // side, which is then a selection path too, so it borrows whenever that
  // side carries predicates; predicates elsewhere are in its plain key.
  std::string key = CacheKey("msg", from, to, preds);
  if (options_.cache_messages) {
    auto it = cache_.find(key);
    if (it == cache_.end() && borrow) {
      key = CacheKey("msg", from, to, preds, /*borrowed=*/true);
      it = cache_.find(key);
    }
    if (it != cache_.end()) {
      ++cache_hits_;
      return it->second;
    }
  }
  ++cache_misses_;

  const RelationBinding& bind = binding(from);
  const std::string& tbl = bind.table;

  // Gather child messages, and the borrowed selector in its neighbour
  // position, so that every message from `from` lists its semi-joins alike.
  std::vector<Message> full_children;
  std::vector<Message> sel_children;
  for (auto [n, e] : graph_->Neighbors(from)) {
    (void)e;
    Message child = n != to   ? PlanMessage(n, from, preds, tag)
                    : borrow ? GetSelector(to, from, preds, tag)
                             : Message{};
    if (child.kind == Message::Kind::kFull) {
      full_children.push_back(std::move(child));
    } else if (child.kind == Message::Kind::kSelection) {
      sel_children.push_back(std::move(child));
    }
  }

  // ⊗-product operands: this relation + full children.
  std::vector<semiring::SqlOperand> ops = {RelationOperand(bind)};
  for (const auto& child : full_children) ops.push_back(MessageOperand(child));

  bool has_s = false;
  for (int r : rels) has_s |= bindings_[static_cast<size_t>(r)].annotated;
  bool has_q = has_s && options_.track_q;

  PendingMessage pending;
  pending.source = tbl;
  pending.keys = keys;
  std::ostringstream input;
  input << "FROM " << tbl;
  for (const auto& child : full_children) {
    input << " JOIN " << child.table << " ON "
          << JoinKeysCondition(tbl, child.table, child.keys);
  }
  for (const auto& child : sel_children) {
    input << " SEMI JOIN " << child.table << " ON "
          << JoinKeysCondition(tbl, child.table, child.keys);
  }
  const auto* own = preds.For(from);
  if (own && !own->empty()) input << " WHERE " << ConjunctionSql(*own);
  pending.input = input.str();
  pending.sums.push_back("SUM(" + VarianceSqlGen::MulC(ops) + ") AS c");
  if (has_s) {
    pending.sums.push_back("SUM(" + VarianceSqlGen::MulS(ops) + ") AS s");
  }
  if (has_q) {
    pending.sums.push_back("SUM(" + VarianceSqlGen::MulQ(ops) + ") AS q");
  }

  Message msg;
  msg.kind = Message::Kind::kFull;
  msg.keys = keys;
  msg.has_s = has_s;
  msg.has_q = has_q;
  // Every miss takes the name it would get if computed on the spot, so later
  // messages keep theirs even when this one shares a twin's table.
  msg.table = NewTempName();
  PendingMessage* twin = nullptr;
  if (options_.cache_messages) {
    // Same keys from the same input under another cache key (e.g. two
    // dimensions on one fact column): identical contents, one table.
    for (auto& p : pending_) {
      if (p.keys == pending.keys && p.input == pending.input &&
          p.sums == pending.sums) {
        twin = &p;
        break;
      }
    }
  }
  if (twin != nullptr) {
    msg.table = twin->table;
    twin->cache_keys.push_back(key);
  } else {
    pending.table = msg.table;
    pending.cache_keys.push_back(key);
    pending_.push_back(std::move(pending));
  }
  if (options_.cache_messages) cache_.emplace(key, msg);
  return msg;
}

std::vector<Message> Factorizer::PlanIncoming(int root,
                                              const PredicateSet& preds,
                                              const std::string& tag) {
  std::vector<Message> msgs;
  for (auto [n, e] : graph_->Neighbors(root)) {
    (void)e;
    Message m = PlanMessage(n, root, preds, tag);
    if (m.kind != Message::Kind::kNone) msgs.push_back(std::move(m));
  }
  return msgs;
}

void Factorizer::Flush(const std::string& tag,
                       std::vector<PendingHistogram>* hists,
                       std::vector<std::string>* shared_tables) {
  // Planning order puts every message after the messages its input joins,
  // and group members share one input, so running each group at its first
  // member always finds its inputs materialized.
  for (size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i].materialized) continue;
    const std::string& input = pending_[i].input;
    const std::vector<std::string>& sums = pending_[i].sums;
    std::vector<PendingMessage*> group;
    for (size_t j = i; j < pending_.size(); ++j) {
      PendingMessage& p = pending_[j];
      if (!p.materialized && p.input == input && p.sums == sums) {
        group.push_back(&p);
      }
    }
    std::vector<PendingHistogram*> group_hists;
    if (hists != nullptr) {
      for (auto& h : *hists) {
        if (h.shareable && h.parts.from_where == input && h.sums == sums) {
          group_hists.push_back(&h);
        }
      }
    }
    const std::string& src = group[0]->source;
    std::string sum_list;
    for (const auto& sum : sums) sum_list += ", " + sum;

    if (group.size() == 1 && group_hists.empty()) {
      PendingMessage& p = *group[0];
      const std::string keys = KeysList(p.keys, src);
      db_->Execute("CREATE TABLE " + p.table + " AS SELECT " + keys +
                       sum_list + " " + input + " GROUP BY " + keys,
                   tag);
      p.materialized = true;
      owned_tables_.push_back(p.table);
      ++messages_materialized_;
      continue;
    }

    // One scan for the whole group: set m is member m's GROUP BY, then one
    // set per attribute of each histogram. Key columns are aliased k<u> so
    // no attribute name can collide with set_id, c, s or q.
    const std::string shared = group[0]->table + "_sets";
    std::vector<std::string> union_cols;
    auto col = [&](const std::string& name) {
      size_t u = static_cast<size_t>(
          std::find(union_cols.begin(), union_cols.end(), name) -
          union_cols.begin());
      if (u == union_cols.size()) union_cols.push_back(name);
      return "k" + std::to_string(u);
    };
    std::string sets;
    std::vector<std::string> splits;
    for (const PendingMessage* p : group) {
      if (!sets.empty()) sets += ", ";
      sets += "(" + KeysList(p->keys, src) + ")";
      std::string proj;
      for (const auto& k : p->keys) proj += col(k) + " AS " + k + ", ";
      splits.push_back(std::move(proj));
    }
    size_t next_set = group.size();
    for (PendingHistogram* h : group_hists) {
      std::string proj;
      for (const auto& a : *h->attrs) {
        sets += ", (" + src + "." + a + ")";
        proj += ", " + col(a) + " AS " + a;
      }
      const size_t first = next_set;
      next_set += h->attrs->size();
      // Renumbered to 0..k-1 so the rows read like the histogram's own
      // GROUPING SETS query.
      h->sql = "SELECT set_id - " + std::to_string(first) + " AS set_id" +
               proj + ", c, s FROM " + shared + " WHERE set_id BETWEEN " +
               std::to_string(first) + " AND " +
               std::to_string(next_set - 1);
    }
    std::string stmt =
        "CREATE TABLE " + shared + " AS SELECT GROUPING_ID() AS set_id";
    for (size_t u = 0; u < union_cols.size(); ++u) {
      stmt += ", " + src + "." + union_cols[u] + " AS k" + std::to_string(u);
    }
    stmt += sum_list + " " + input + " GROUP BY GROUPING SETS (" + sets + ")";
    db_->Execute(stmt, tag);
    owned_tables_.push_back(shared);

    const std::string sum_cols = SumColumns(sums.size());
    for (size_t m = 0; m < group.size(); ++m) {
      PendingMessage& p = *group[m];
      db_->Execute("CREATE TABLE " + p.table + " AS SELECT " + splits[m] +
                       sum_cols + " FROM " + shared +
                       " WHERE set_id = " + std::to_string(m),
                   tag);
      p.materialized = true;
      owned_tables_.push_back(p.table);
      ++messages_materialized_;
    }
    if (group_hists.empty()) {
      DropOwned(shared);
    } else {
      shared_tables->push_back(shared);
    }
  }
  pending_.clear();
}

void Factorizer::DiscardPending() {
  for (const auto& p : pending_) {
    if (p.materialized) continue;
    for (const auto& key : p.cache_keys) cache_.erase(key);
  }
  pending_.clear();
}

void Factorizer::DropOwned(const std::string& table) {
  db_->catalog().DropIfExists(table);
  owned_tables_.erase(
      std::remove(owned_tables_.begin(), owned_tables_.end(), table),
      owned_tables_.end());
}

Factorizer::AbsorptionParts Factorizer::BuildAbsorption(
    int root, const PredicateSet& preds, const std::string& tag) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  try {
    AbsorptionParts parts =
        Absorption(root, PlanIncoming(root, preds, tag), preds);
    Flush(tag, nullptr, nullptr);
    return parts;
  } catch (...) {
    DiscardPending();
    throw;
  }
}

Factorizer::AbsorptionParts Factorizer::Absorption(
    int root, const std::vector<Message>& msgs,
    const PredicateSet& preds) const {
  const RelationBinding& bind = binding(root);
  const std::string& tbl = bind.table;

  // ⊗-product operands: the root + full messages.
  std::vector<semiring::SqlOperand> ops = {RelationOperand(bind)};
  std::ostringstream from;
  from << "FROM " << tbl;
  for (const auto& m : msgs) {
    if (m.kind == Message::Kind::kFull) {
      from << " JOIN " << m.table << " ON "
           << JoinKeysCondition(tbl, m.table, m.keys);
      ops.push_back(MessageOperand(m));
    } else {
      from << " SEMI JOIN " << m.table << " ON "
           << JoinKeysCondition(tbl, m.table, m.keys);
    }
  }
  const auto* own = preds.For(root);
  if (own && !own->empty()) from << " WHERE " << ConjunctionSql(*own);

  AbsorptionParts parts;
  parts.from_where = from.str();
  parts.c_expr = VarianceSqlGen::MulC(ops);
  parts.s_expr = VarianceSqlGen::MulS(ops);
  if (options_.track_q) parts.q_expr = VarianceSqlGen::MulQ(ops);
  return parts;
}

LeafHistograms Factorizer::BatchedHistograms(
    const std::vector<HistogramRequest>& reqs, const PredicateSet& preds,
    const std::string& tag) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  LeafHistograms out;
  try {
    std::vector<PendingHistogram> hists(reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
      const std::vector<Message> msgs = PlanIncoming(reqs[i].root, preds, tag);
      PendingHistogram& h = hists[i];
      h.attrs = &reqs[i].attrs;
      h.parts = Absorption(reqs[i].root, msgs, preds);
      // No q column: the split criterion only needs (c, s) — §5.3.1.
      h.sums = {"SUM(" + h.parts.c_expr + ") AS c",
                "SUM(" + h.parts.s_expr + ") AS s"};
      const TablePtr table = db_->catalog().Get(binding(reqs[i].root).table);
      h.shareable = table->num_rows() >= kSharedHistogramMinRows;
      // An attribute that a joined message also has would be ambiguous
      // unqualified, which stops the planner from reordering the joins.
      for (const auto& m : msgs) {
        std::vector<std::string> cols = m.keys;
        if (m.kind == Message::Kind::kFull) {
          cols.insert(cols.end(), {"c", "s", "q"});
        }
        for (const auto& a : reqs[i].attrs) {
          if (std::find(cols.begin(), cols.end(), a) != cols.end()) {
            h.shareable = false;
          }
        }
      }
    }
    Flush(tag, &hists, &out.shared_tables);
    for (const auto& h : hists) {
      out.sql.push_back(!h.sql.empty()
                            ? h.sql
                            : VarianceSqlGen::HistogramQuery(
                                  *h.attrs, h.parts.from_where,
                                  h.parts.c_expr, h.parts.s_expr));
    }
  } catch (...) {
    // Shared tables made before the failure stay owned until ClearCache.
    DiscardPending();
    throw;
  }
  return out;
}

void Factorizer::ReleaseShared(const LeafHistograms& hists) {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  for (const auto& t : hists.shared_tables) DropOwned(t);
}

semiring::VarianceElem Factorizer::TotalAggregate(int root,
                                                  const PredicateSet& preds,
                                                  const std::string& tag) {
  AbsorptionParts parts = BuildAbsorption(root, preds, tag);
  std::string sql = "SELECT SUM(" + parts.c_expr + ") AS c, SUM(" +
                    parts.s_expr + ") AS s";
  if (options_.track_q) sql += ", SUM(" + parts.q_expr + ") AS q";
  sql += " " + parts.from_where;
  auto res = db_->Query(sql, tag);
  semiring::VarianceElem out;
  if (res->rows == 0) return out;
  Value c = res->GetValue(0, 0);
  Value s = res->GetValue(0, 1);
  out.c = c.null ? 0 : c.AsDouble();
  out.s = s.null ? 0 : s.AsDouble();
  if (options_.track_q) {
    Value q = res->GetValue(0, 2);
    out.q = q.null ? 0 : q.AsDouble();
  }
  return out;
}

void Factorizer::ClearCache() {
  std::lock_guard<std::recursive_mutex> lock(mu_);
  for (const auto& t : owned_tables_) db_->catalog().DropIfExists(t);
  owned_tables_.clear();
  cache_.clear();
}

}  // namespace factor
}  // namespace joinboost
