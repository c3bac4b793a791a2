#include "sql/parser.h"

#include <cctype>
#include <cstdlib>
#include <unordered_set>

namespace joinboost {
namespace sql {

namespace {

enum class TokKind {
  kEnd,
  kIdent,
  kKeyword,
  kInt,
  kFloat,
  kString,
  kSymbol,  // punctuation / operators
};

struct Token {
  TokKind kind = TokKind::kEnd;
  std::string text;  ///< uppercased for keywords; raw for idents/strings
  int64_t int_val = 0;
  double float_val = 0.0;
  size_t pos = 0;
};

const std::unordered_set<std::string>& Keywords() {
  static const std::unordered_set<std::string> kw = {
      "SELECT", "FROM",   "WHERE",  "GROUP",  "BY",     "ORDER",  "LIMIT",
      "JOIN",   "INNER",  "LEFT",   "SEMI",   "ANTI",   "OUTER",  "ON",
      "AS",     "AND",    "OR",     "NOT",    "IN",     "IS",     "NULL",
      "CASE",   "WHEN",   "THEN",   "ELSE",   "END",    "CREATE", "TABLE",
      "UPDATE", "SET",    "DROP",   "IF",     "EXISTS", "DESC",   "ASC",
      "OVER",   "PARTITION", "HAVING", "DISTINCT", "REPLACE", "BETWEEN",
      "EXPLAIN", "ANALYZE", "GROUPING", "SETS",
  };
  return kw;
}

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) { Advance(); }

  const Token& Peek() const { return cur_; }

  Token Next() {
    Token t = cur_;
    Advance();
    return t;
  }

 private:
  void Advance() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    // line comments
    if (pos_ + 1 < text_.size() && text_[pos_] == '-' && text_[pos_ + 1] == '-') {
      while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      Advance();
      return;
    }
    cur_ = Token();
    cur_.pos = pos_;
    if (pos_ >= text_.size()) {
      cur_.kind = TokKind::kEnd;
      return;
    }
    char c = text_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      size_t start = pos_;
      while (pos_ < text_.size() &&
             (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '_')) {
        ++pos_;
      }
      std::string word = text_.substr(start, pos_ - start);
      std::string upper = word;
      for (auto& ch : upper) ch = static_cast<char>(std::toupper(ch));
      if (Keywords().count(upper)) {
        cur_.kind = TokKind::kKeyword;
        cur_.text = upper;
      } else {
        cur_.kind = TokKind::kIdent;
        cur_.text = word;
      }
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && pos_ + 1 < text_.size() &&
         std::isdigit(static_cast<unsigned char>(text_[pos_ + 1])))) {
      size_t start = pos_;
      bool is_float = false;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
              text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
              ((text_[pos_] == '+' || text_[pos_] == '-') && pos_ > start &&
               (text_[pos_ - 1] == 'e' || text_[pos_ - 1] == 'E')))) {
        if (text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E') {
          is_float = true;
        }
        ++pos_;
      }
      std::string num = text_.substr(start, pos_ - start);
      if (is_float) {
        cur_.kind = TokKind::kFloat;
        cur_.float_val = std::strtod(num.c_str(), nullptr);
      } else {
        cur_.kind = TokKind::kInt;
        cur_.int_val = std::strtoll(num.c_str(), nullptr, 10);
      }
      cur_.text = num;
      return;
    }
    if (c == '\'') {
      ++pos_;
      std::string s;
      while (true) {
        if (pos_ >= text_.size()) {
          throw ParseError("unterminated string", cur_.pos);
        }
        if (text_[pos_] == '\'') {
          // A doubled quote is one quote in the value (the SQL escape).
          if (pos_ + 1 >= text_.size() || text_[pos_ + 1] != '\'') break;
          ++pos_;
        }
        s.push_back(text_[pos_++]);
      }
      ++pos_;  // closing quote
      cur_.kind = TokKind::kString;
      cur_.text = s;
      return;
    }
    // multi-char symbols
    static const char* two_char[] = {"<=", ">=", "<>", "!=", "||"};
    for (const char* tc : two_char) {
      if (text_.compare(pos_, 2, tc) == 0) {
        cur_.kind = TokKind::kSymbol;
        cur_.text = tc;
        pos_ += 2;
        return;
      }
    }
    cur_.kind = TokKind::kSymbol;
    cur_.text = std::string(1, c);
    ++pos_;
  }

  const std::string& text_;
  size_t pos_ = 0;
  Token cur_;
};

class Parser {
 public:
  explicit Parser(const std::string& text) : lexer_(text) {}

  /// Deepest nesting of expressions, subqueries and unary operators
  /// accepted. Each level recurses, so without a bound a hostile input
  /// (10,000 open parentheses) exhausts the stack. A level costs about 9 KB
  /// of stack in an unoptimized AddressSanitizer build, so 256 levels stay
  /// far inside an 8 MB stack; generated SQL nests a few levels.
  static constexpr int kMaxDepth = 256;

  Statement ParseStatement() {
    Statement stmt;
    if (PeekKeyword("SELECT")) {
      stmt.kind = Statement::Kind::kSelect;
      stmt.select = ParseSelect();
    } else if (AcceptKeyword("EXPLAIN")) {
      stmt.kind = Statement::Kind::kExplain;
      stmt.analyze = AcceptKeyword("ANALYZE");
      stmt.select = ParseSelect();
    } else if (AcceptKeyword("CREATE")) {
      if (AcceptKeyword("OR")) {
        ExpectKeyword("REPLACE");
        stmt.or_replace = true;
      }
      ExpectKeyword("TABLE");
      stmt.kind = Statement::Kind::kCreateTableAs;
      stmt.table = ExpectIdent();
      ExpectKeyword("AS");
      stmt.select = ParseSelect();
    } else if (AcceptKeyword("UPDATE")) {
      stmt.kind = Statement::Kind::kUpdate;
      stmt.table = ExpectIdent();
      ExpectKeyword("SET");
      do {
        std::string col = ExpectIdent();
        ExpectSymbol("=");
        stmt.set_items.emplace_back(col, ParseExpr());
      } while (AcceptSymbol(","));
      if (AcceptKeyword("WHERE")) stmt.where = ParseExpr();
    } else if (AcceptKeyword("DROP")) {
      ExpectKeyword("TABLE");
      stmt.kind = Statement::Kind::kDropTable;
      if (AcceptKeyword("IF")) {
        ExpectKeyword("EXISTS");
        stmt.if_exists = true;
      }
      stmt.table = ExpectIdent();
    } else {
      throw ParseError("expected SELECT/EXPLAIN/CREATE/UPDATE/DROP",
                       lexer_.Peek().pos);
    }
    AcceptSymbol(";");
    if (lexer_.Peek().kind != TokKind::kEnd) {
      throw ParseError("trailing tokens after statement", lexer_.Peek().pos);
    }
    return stmt;
  }

  ExprPtr ParseExprPublic() { return ParseExpr(); }

 private:
  // ---- token helpers ----
  bool PeekKeyword(const std::string& kw) const {
    return lexer_.Peek().kind == TokKind::kKeyword && lexer_.Peek().text == kw;
  }
  bool AcceptKeyword(const std::string& kw) {
    if (PeekKeyword(kw)) {
      lexer_.Next();
      return true;
    }
    return false;
  }
  void ExpectKeyword(const std::string& kw) {
    if (!AcceptKeyword(kw)) {
      throw ParseError("expected keyword " + kw + ", got '" +
                           lexer_.Peek().text + "'",
                       lexer_.Peek().pos);
    }
  }
  bool PeekSymbol(const std::string& s) const {
    return lexer_.Peek().kind == TokKind::kSymbol && lexer_.Peek().text == s;
  }
  bool AcceptSymbol(const std::string& s) {
    if (PeekSymbol(s)) {
      lexer_.Next();
      return true;
    }
    return false;
  }
  void ExpectSymbol(const std::string& s) {
    if (!AcceptSymbol(s)) {
      throw ParseError("expected '" + s + "', got '" + lexer_.Peek().text + "'",
                       lexer_.Peek().pos);
    }
  }
  std::string ExpectIdent() {
    if (lexer_.Peek().kind != TokKind::kIdent) {
      throw ParseError("expected identifier, got '" + lexer_.Peek().text + "'",
                       lexer_.Peek().pos);
    }
    return lexer_.Next().text;
  }

  /// Counts one nesting level for its lifetime.
  class DepthGuard {
   public:
    explicit DepthGuard(Parser* parser) : parser_(parser) {
      if (parser_->depth_ == kMaxDepth) {
        throw ParseError("nesting deeper than " + std::to_string(kMaxDepth),
                         parser_->lexer_.Peek().pos);
      }
      ++parser_->depth_;
    }
    ~DepthGuard() { --parser_->depth_; }
    DepthGuard(const DepthGuard&) = delete;
    DepthGuard& operator=(const DepthGuard&) = delete;

   private:
    Parser* parser_;
  };

  // ---- grammar ----
  SelectPtr ParseSelect() {
    DepthGuard guard(this);
    ExpectKeyword("SELECT");
    auto stmt = std::make_shared<SelectStmt>();
    if (AcceptKeyword("DISTINCT")) stmt->distinct = true;
    do {
      ExprPtr item;
      if (PeekSymbol("*")) {
        lexer_.Next();
        item = Expr::Star();
      } else {
        item = ParseExpr();
        if (AcceptKeyword("AS")) {
          item->alias = ExpectIdent();
        } else if (lexer_.Peek().kind == TokKind::kIdent) {
          item->alias = lexer_.Next().text;
        }
      }
      stmt->select_list.push_back(std::move(item));
    } while (AcceptSymbol(","));

    if (AcceptKeyword("FROM")) {
      stmt->has_from = true;
      stmt->from = ParseTableRef();
      for (;;) {
        JoinType jt = JoinType::kInner;
        if (PeekKeyword("JOIN")) {
          lexer_.Next();
          jt = JoinType::kInner;
        } else if (PeekKeyword("INNER")) {
          lexer_.Next();
          ExpectKeyword("JOIN");
          jt = JoinType::kInner;
        } else if (PeekKeyword("LEFT")) {
          lexer_.Next();
          AcceptKeyword("OUTER");
          ExpectKeyword("JOIN");
          jt = JoinType::kLeft;
        } else if (PeekKeyword("SEMI")) {
          lexer_.Next();
          ExpectKeyword("JOIN");
          jt = JoinType::kSemi;
        } else if (PeekKeyword("ANTI")) {
          lexer_.Next();
          ExpectKeyword("JOIN");
          jt = JoinType::kAnti;
        } else {
          break;
        }
        JoinClause jc;
        jc.type = jt;
        jc.table = ParseTableRef();
        ExpectKeyword("ON");
        jc.condition = ParseExpr();
        stmt->joins.push_back(std::move(jc));
      }
    }
    if (AcceptKeyword("WHERE")) stmt->where = ParseExpr();
    if (AcceptKeyword("GROUP")) {
      ExpectKeyword("BY");
      if (AcceptKeyword("GROUPING")) {
        ExpectKeyword("SETS");
        ExpectSymbol("(");
        do {
          ExpectSymbol("(");
          std::vector<ExprPtr> set;
          if (!PeekSymbol(")")) {
            do {
              set.push_back(ParseExpr());
            } while (AcceptSymbol(","));
          }
          ExpectSymbol(")");
          stmt->grouping_sets.push_back(std::move(set));
        } while (AcceptSymbol(","));
        ExpectSymbol(")");
      } else {
        do {
          stmt->group_by.push_back(ParseExpr());
        } while (AcceptSymbol(","));
      }
    }
    if (AcceptKeyword("HAVING")) stmt->having = ParseExpr();
    if (AcceptKeyword("ORDER")) {
      ExpectKeyword("BY");
      do {
        OrderItem item;
        item.expr = ParseExpr();
        if (AcceptKeyword("DESC")) {
          item.desc = true;
        } else {
          AcceptKeyword("ASC");
        }
        stmt->order_by.push_back(std::move(item));
      } while (AcceptSymbol(","));
    }
    if (AcceptKeyword("LIMIT")) {
      if (lexer_.Peek().kind != TokKind::kInt) {
        throw ParseError("expected integer after LIMIT", lexer_.Peek().pos);
      }
      stmt->limit = lexer_.Next().int_val;
    }
    return stmt;
  }

  TableRef ParseTableRef() {
    TableRef ref;
    if (AcceptSymbol("(")) {
      ref.kind = TableRef::Kind::kSubquery;
      ref.subquery = ParseSelect();
      ExpectSymbol(")");
    } else {
      ref.kind = TableRef::Kind::kBase;
      ref.name = ExpectIdent();
    }
    if (AcceptKeyword("AS")) {
      ref.alias = ExpectIdent();
    } else if (lexer_.Peek().kind == TokKind::kIdent) {
      ref.alias = lexer_.Next().text;
    }
    return ref;
  }

  // Precedence: OR < AND < NOT < comparison/IN/IS < +- < */% < unary < primary
  ExprPtr ParseExpr() {
    DepthGuard guard(this);
    return ParseOr();
  }

  ExprPtr ParseOr() {
    ExprPtr lhs = ParseAnd();
    while (AcceptKeyword("OR")) {
      lhs = Expr::Binary("OR", std::move(lhs), ParseAnd());
    }
    return lhs;
  }

  ExprPtr ParseAnd() {
    ExprPtr lhs = ParseNot();
    while (AcceptKeyword("AND")) {
      lhs = Expr::Binary("AND", std::move(lhs), ParseNot());
    }
    return lhs;
  }

  ExprPtr ParseNot() {
    if (AcceptKeyword("NOT")) {
      DepthGuard guard(this);
      return Expr::Unary("NOT", ParseNot());
    }
    return ParseComparison();
  }

  ExprPtr ParseComparison() {
    ExprPtr lhs = ParseAdditive();
    for (;;) {
      if (PeekSymbol("=") || PeekSymbol("<") || PeekSymbol("<=") ||
          PeekSymbol(">") || PeekSymbol(">=") || PeekSymbol("<>") ||
          PeekSymbol("!=")) {
        std::string op = lexer_.Next().text;
        if (op == "!=") op = "<>";
        lhs = Expr::Binary(op, std::move(lhs), ParseAdditive());
        continue;
      }
      bool negated = false;
      if (PeekKeyword("NOT")) {
        // lookahead for NOT IN (we already consumed NOT at higher level
        // normally, but allow "expr NOT IN ...")
        lexer_.Next();
        negated = true;
        if (!PeekKeyword("IN")) {
          throw ParseError("expected IN after NOT", lexer_.Peek().pos);
        }
      }
      if (AcceptKeyword("IN")) {
        lhs = ParseInTail({std::move(lhs)}, negated);
        continue;
      }
      if (AcceptKeyword("IS")) {
        bool neg = AcceptKeyword("NOT");
        ExpectKeyword("NULL");
        auto e = std::make_shared<Expr>();
        e->kind = ExprKind::kIsNull;
        e->negated = neg;
        e->args = {std::move(lhs)};
        lhs = std::move(e);
        continue;
      }
      if (AcceptKeyword("BETWEEN")) {
        ExprPtr lo = ParseAdditive();
        ExpectKeyword("AND");
        ExprPtr hi = ParseAdditive();
        ExprPtr ge = Expr::Binary(">=", lhs, std::move(lo));
        ExprPtr le = Expr::Binary("<=", lhs, std::move(hi));
        lhs = Expr::Binary("AND", std::move(ge), std::move(le));
        continue;
      }
      break;
    }
    return lhs;
  }

  /// The "(SELECT ...)" or "(v1, v2, ...)" after [NOT] IN. A row value
  /// (several probes) takes only the subquery form.
  ExprPtr ParseInTail(std::vector<ExprPtr> probes, bool negated) {
    ExpectSymbol("(");
    auto e = std::make_shared<Expr>();
    e->negated = negated;
    e->args = std::move(probes);
    if (PeekKeyword("SELECT")) {
      e->kind = ExprKind::kInSubquery;
      e->subquery = ParseSelect();
    } else {
      if (e->args.size() > 1) {
        throw ParseError("a row value IN takes a subquery", lexer_.Peek().pos);
      }
      e->kind = ExprKind::kInList;
      do {
        e->args.push_back(ParseAdditive());
      } while (AcceptSymbol(","));
    }
    ExpectSymbol(")");
    return e;
  }

  ExprPtr ParseAdditive() {
    ExprPtr lhs = ParseMultiplicative();
    for (;;) {
      if (PeekSymbol("+") || PeekSymbol("-")) {
        std::string op = lexer_.Next().text;
        lhs = Expr::Binary(op, std::move(lhs), ParseMultiplicative());
      } else {
        break;
      }
    }
    return lhs;
  }

  ExprPtr ParseMultiplicative() {
    ExprPtr lhs = ParseUnary();
    for (;;) {
      if (PeekSymbol("*") || PeekSymbol("/") || PeekSymbol("%")) {
        std::string op = lexer_.Next().text;
        lhs = Expr::Binary(op, std::move(lhs), ParseUnary());
      } else {
        break;
      }
    }
    return lhs;
  }

  ExprPtr ParseUnary() {
    if (PeekSymbol("-")) {
      lexer_.Next();
      DepthGuard guard(this);
      return Expr::Unary("-", ParseUnary());
    }
    if (PeekSymbol("+")) {
      lexer_.Next();
      DepthGuard guard(this);
      return ParseUnary();
    }
    return ParsePrimary();
  }

  ExprPtr ParsePrimary() {
    const Token& tok = lexer_.Peek();
    if (tok.kind == TokKind::kInt) {
      return Expr::Int(lexer_.Next().int_val);
    }
    if (tok.kind == TokKind::kFloat) {
      return Expr::Float(lexer_.Next().float_val);
    }
    if (tok.kind == TokKind::kString) {
      return Expr::Str(lexer_.Next().text);
    }
    if (PeekKeyword("NULL")) {
      lexer_.Next();
      return Expr::Null();
    }
    if (PeekKeyword("CASE")) {
      lexer_.Next();
      auto e = std::make_shared<Expr>();
      e->kind = ExprKind::kCase;
      while (AcceptKeyword("WHEN")) {
        e->args.push_back(ParseExpr());
        ExpectKeyword("THEN");
        e->args.push_back(ParseExpr());
      }
      if (AcceptKeyword("ELSE")) {
        e->has_else = true;
        e->args.push_back(ParseExpr());
      }
      ExpectKeyword("END");
      return e;
    }
    if (AcceptSymbol("(")) {
      if (PeekKeyword("SELECT")) {
        // Scalar subquery: modeled as IN-subquery-free single-value select.
        auto e = std::make_shared<Expr>();
        e->kind = ExprKind::kInSubquery;  // reuse: args empty => scalar
        e->subquery = ParseSelect();
        ExpectSymbol(")");
        return e;
      }
      ExprPtr inner = ParseExpr();
      if (PeekSymbol(",")) {
        // Row value: only valid as the left side of [NOT] IN (SELECT ...).
        std::vector<ExprPtr> row = {std::move(inner)};
        while (AcceptSymbol(",")) row.push_back(ParseExpr());
        ExpectSymbol(")");
        bool negated = AcceptKeyword("NOT");
        if (!AcceptKeyword("IN")) {
          throw ParseError("a parenthesized list must be followed by IN",
                           lexer_.Peek().pos);
        }
        return ParseInTail(std::move(row), negated);
      }
      ExpectSymbol(")");
      return inner;
    }
    if (tok.kind == TokKind::kIdent) {
      std::string name = lexer_.Next().text;
      if (PeekSymbol("(")) {
        return ParseCall(name);
      }
      if (AcceptSymbol(".")) {
        std::string col = ExpectIdent();
        return Expr::Column(name, col);
      }
      return Expr::Column("", name);
    }
    throw ParseError("unexpected token '" + tok.text + "'", tok.pos);
  }

  ExprPtr ParseCall(const std::string& raw_name) {
    std::string name = raw_name;
    for (auto& c : name) c = static_cast<char>(std::toupper(c));
    ExpectSymbol("(");
    std::vector<ExprPtr> args;
    if (!PeekSymbol(")")) {
      if (PeekSymbol("*")) {
        lexer_.Next();
        args.push_back(Expr::Star());
      } else {
        do {
          args.push_back(ParseExpr());
        } while (AcceptSymbol(","));
      }
    }
    ExpectSymbol(")");
    static const std::unordered_set<std::string> agg_names = {
        "SUM", "COUNT", "AVG", "MIN", "MAX"};
    bool is_agg = agg_names.count(name) > 0;
    if (AcceptKeyword("OVER")) {
      ExpectSymbol("(");
      auto e = std::make_shared<Expr>();
      e->kind = ExprKind::kWindowAgg;
      e->op = name;
      e->args = std::move(args);
      if (AcceptKeyword("PARTITION")) {
        ExpectKeyword("BY");
        do {
          e->partition_by.push_back(ParseExpr());
        } while (AcceptSymbol(","));
      }
      if (AcceptKeyword("ORDER")) {
        ExpectKeyword("BY");
        do {
          e->order_by.push_back(ParseExpr());
          AcceptKeyword("ASC");
        } while (AcceptSymbol(","));
      }
      ExpectSymbol(")");
      return e;
    }
    if (is_agg) return Expr::Agg(name, std::move(args));
    return Expr::Func(name, std::move(args));
  }

  Lexer lexer_;
  int depth_ = 0;
};

}  // namespace

Statement Parse(const std::string& text) {
  Parser parser(text);
  return parser.ParseStatement();
}

ExprPtr ParseExpr(const std::string& text) {
  Parser parser(text);
  return parser.ParseExprPublic();
}

}  // namespace sql
}  // namespace joinboost
