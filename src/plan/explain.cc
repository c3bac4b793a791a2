#include <sstream>

#include "plan/logical_plan.h"

namespace joinboost {
namespace plan {

namespace {

void Render(const LogicalOp& op, int depth, std::ostream& os) {
  for (int i = 0; i < depth; ++i) os << "  ";
  os << OperatorLabel(op) << "\n";
  for (const auto& c : op.children) Render(*c, depth + 1, os);
}

}  // namespace

std::string Explain(const LogicalPlan& plan) {
  std::ostringstream os;
  if (plan.root) Render(*plan.root, 0, os);
  if (plan.joins_reordered || plan.predicates_pushed > 0 ||
      plan.constants_folded > 0) {
    os << "-- rules:";
    if (plan.predicates_pushed > 0) {
      os << " pushed=" << plan.predicates_pushed;
    }
    if (plan.constants_folded > 0) {
      os << " folded=" << plan.constants_folded;
    }
    if (plan.joins_reordered) os << " joins-reordered";
    os << "\n";
  }
  return os.str();
}

std::string FormatStats(const PlanStats& s) {
  std::ostringstream os;
  os << "queries_planned    " << s.queries_planned << "\n"
     << "scans              " << s.scans << "\n"
     << "rows scan in/out   " << s.rows_scan_input << " / "
     << s.rows_scan_output << "\n"
     << "cols scan/pruned   " << s.cols_scanned << " / " << s.cols_pruned
     << "\n"
     << "decompressed       " << s.cols_decompressed << " cols, "
     << s.cells_decompressed << " cells\n"
     << "decompress_avoided " << s.cells_decompress_avoided << " cells\n"
     << "blocks_skipped     " << s.blocks_skipped << "\n"
     << "predicates_pushed  " << s.predicates_pushed << "\n"
     << "constants_folded   " << s.constants_folded << "\n"
     << "joins_reordered    " << s.joins_reordered << "\n"
     << "morsels disp/stole " << s.morsels_dispatched << " / "
     << s.morsels_stolen << "\n"
     << "multi_aggs/sets    " << s.multi_aggs << " / " << s.grouping_sets
     << "\n"
     << "hash_probes        " << s.hash_probes << "\n"
     << "hash_chain_follows " << s.hash_chain_follows << "\n"
     << "hash_bytes         " << s.hash_bytes << "\n"
     << "chunks created/rewritten " << s.chunks_created << " / "
     << s.chunks_rewritten << "\n"
     << "chunks_pruned      " << s.chunks_pruned << "\n"
     << "guard_checks       " << s.guard_checks << "\n"
     << "queries_cancelled  " << s.queries_cancelled << "\n"
     << "deadline_aborts    " << s.deadline_aborts << "\n"
     << "budget_aborts      " << s.budget_aborts << "\n";
  return os.str();
}

}  // namespace plan
}  // namespace joinboost
