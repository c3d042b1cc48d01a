#include "datalog/parser.h"

#include <cctype>
#include <cmath>
#include <string>
#include <vector>

#include "lattice/aggregate.h"
#include "lattice/cost_domain.h"
#include "util/string_util.h"

namespace mad {
namespace datalog {

namespace {

// ---------------------------------------------------------------------------
// Lexer
// ---------------------------------------------------------------------------

enum class Tok {
  kEnd,
  kIdent,     // lower-case identifier: predicate / symbol constant / keyword
  kVar,       // Upper-case or _ identifier: variable
  kString,    // "quoted symbol"
  kNumber,    // integer or real literal
  kLParen,
  kRParen,
  kComma,
  kDot,       // statement terminator '.'
  kColon,
  kTurnstile, // :-
  kBang,      // !
  kEq,        // =
  kEqR,       // =r
  kNe,        // !=
  kLt,
  kLe,
  kGt,
  kGe,
  kPlus,
  kMinus,
  kStar,
  kSlash,
  kLBrace,    // { — set literal
  kRBrace,    // }
  kDirective, // .decl / .constraint (ident carries the name)
};

struct Token {
  Tok kind = Tok::kEnd;
  std::string text;   // identifier / string payload
  double number = 0;  // kNumber payload
  bool is_integer = false;
  int line = 0;
  int col = 0;  // 1-based column of the token's first character
  int end_line = 0;  // 1-based line just past the token's last character
  int end_col = 0;   // 1-based column just past the token's last character

  SourceSpan Span() const {
    SourceSpan s;
    s.line = line;
    s.col = col;
    s.end_line = end_line;
    s.end_col = end_col;
    return s;
  }
};

class Lexer {
 public:
  explicit Lexer(std::string_view src) : src_(src) {}

  StatusOr<std::vector<Token>> Tokenize() {
    std::vector<Token> out;
    // Facts average about one token per two characters; reserving that
    // much spares the stream its regrowth copies, and the fresh pages each
    // copy touches when a large fact list is parsed into a compact heap.
    out.reserve(src_.size() / 2 + 1);
    while (true) {
      SkipSpaceAndComments();
      if (pos_ >= src_.size()) break;
      MAD_ASSIGN_OR_RETURN(Token t, Next());
      t.end_line = line_;
      t.end_col = Col();
      out.push_back(std::move(t));
    }
    Token end;
    end.kind = Tok::kEnd;
    end.line = line_;
    end.col = Col();
    end.end_line = end.line;
    end.end_col = end.col;
    out.push_back(end);
    return out;
  }

 private:
  /// 1-based column of the character at pos_.
  int Col() const { return static_cast<int>(pos_ - line_start_) + 1; }

  void SkipSpaceAndComments() {
    while (pos_ < src_.size()) {
      char c = src_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
        line_start_ = pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '%' ||
                 (c == '/' && pos_ + 1 < src_.size() && src_[pos_ + 1] == '/')) {
        while (pos_ < src_.size() && src_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  StatusOr<Token> Next() {
    Token t;
    t.line = line_;
    t.col = Col();
    char c = src_[pos_];

    if (c == '.') {
      // Either a directive (".decl"), or the statement terminator.
      if (pos_ + 1 < src_.size() &&
          std::isalpha(static_cast<unsigned char>(src_[pos_ + 1]))) {
        ++pos_;
        t.kind = Tok::kDirective;
        t.text = LexIdentText();
        return t;
      }
      ++pos_;
      t.kind = Tok::kDot;
      return t;
    }

    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && pos_ + 1 < src_.size() &&
         std::isdigit(static_cast<unsigned char>(src_[pos_ + 1])) &&
         NumberContext())) {
      return LexNumber();
    }

    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::string text = LexIdentText();
      t.text = std::move(text);
      t.kind = (std::isupper(static_cast<unsigned char>(t.text[0])) ||
                t.text[0] == '_')
                   ? Tok::kVar
                   : Tok::kIdent;
      return t;
    }

    if (c == '"') {
      ++pos_;
      std::string s;
      while (pos_ < src_.size() && src_[pos_] != '"') {
        if (src_[pos_] == '\n') {
          ++line_;
          line_start_ = pos_ + 1;
        }
        s += src_[pos_++];
      }
      if (pos_ >= src_.size()) {
        return Status::ParseError(StrPrintf(
            "line %d col %d: unterminated string literal", t.line, t.col));
      }
      ++pos_;  // closing quote
      t.kind = Tok::kString;
      t.text = std::move(s);
      return t;
    }

    auto two = [&](char a, char b) {
      return c == a && pos_ + 1 < src_.size() && src_[pos_ + 1] == b;
    };

    if (two(':', '-')) {
      pos_ += 2;
      t.kind = Tok::kTurnstile;
      return t;
    }
    if (two('=', 'r')) {
      // "=r" only when not part of a longer identifier (e.g. "=rest" is not
      // possible since identifiers can't follow '=' anyway, but guard "=r2").
      if (pos_ + 2 >= src_.size() ||
          !(std::isalnum(static_cast<unsigned char>(src_[pos_ + 2])) ||
            src_[pos_ + 2] == '_')) {
        pos_ += 2;
        t.kind = Tok::kEqR;
        return t;
      }
    }
    if (two('!', '=')) {
      pos_ += 2;
      t.kind = Tok::kNe;
      return t;
    }
    if (two('<', '=')) {
      pos_ += 2;
      t.kind = Tok::kLe;
      return t;
    }
    if (two('>', '=')) {
      pos_ += 2;
      t.kind = Tok::kGe;
      return t;
    }

    ++pos_;
    switch (c) {
      case '(':
        t.kind = Tok::kLParen;
        return t;
      case ')':
        t.kind = Tok::kRParen;
        return t;
      case '{':
        t.kind = Tok::kLBrace;
        return t;
      case '}':
        t.kind = Tok::kRBrace;
        return t;
      case ',':
        t.kind = Tok::kComma;
        return t;
      case ':':
        t.kind = Tok::kColon;
        return t;
      case '!':
        t.kind = Tok::kBang;
        return t;
      case '=':
        t.kind = Tok::kEq;
        return t;
      case '<':
        t.kind = Tok::kLt;
        return t;
      case '>':
        t.kind = Tok::kGt;
        return t;
      case '+':
        t.kind = Tok::kPlus;
        return t;
      case '-':
        t.kind = Tok::kMinus;
        return t;
      case '*':
        t.kind = Tok::kStar;
        return t;
      case '/':
        t.kind = Tok::kSlash;
        return t;
      default:
        return Status::ParseError(StrPrintf(
            "line %d col %d: unexpected character '%c'", t.line, t.col, c));
    }
  }

  /// Heuristic: a '-' begins a negative number literal only where a term can
  /// start (after '(', ',', comparison, arithmetic op, ':', or at start).
  bool NumberContext() const {
    // Look back for the previous non-space char.
    size_t i = pos_;
    while (i > 0) {
      char p = src_[i - 1];
      if (std::isspace(static_cast<unsigned char>(p))) {
        --i;
        continue;
      }
      return !(std::isalnum(static_cast<unsigned char>(p)) || p == ')' ||
               p == '"' || p == '_');
    }
    return true;
  }

  std::string LexIdentText() {
    size_t start = pos_;
    while (pos_ < src_.size() &&
           (std::isalnum(static_cast<unsigned char>(src_[pos_])) ||
            src_[pos_] == '_')) {
      ++pos_;
    }
    return std::string(src_.substr(start, pos_ - start));
  }

  StatusOr<Token> LexNumber() {
    Token t;
    t.line = line_;
    t.col = Col();
    t.kind = Tok::kNumber;
    size_t start = pos_;
    if (src_[pos_] == '-') ++pos_;
    bool saw_dot = false;
    while (pos_ < src_.size()) {
      char c = src_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' && !saw_dot && pos_ + 1 < src_.size() &&
                 std::isdigit(static_cast<unsigned char>(src_[pos_ + 1]))) {
        // A '.' is part of the number only when followed by a digit; plain
        // "3." is the integer 3 followed by the statement terminator.
        saw_dot = true;
        ++pos_;
      } else {
        break;
      }
    }
    std::string text(src_.substr(start, pos_ - start));
    t.number = std::stod(text);
    t.is_integer = !saw_dot;
    return t;
  }

  std::string_view src_;
  size_t pos_ = 0;
  size_t line_start_ = 0;
  int line_ = 1;
};

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

class Parser {
 public:
  Parser(Program* program, std::vector<Token> tokens)
      : program_(program), tokens_(std::move(tokens)) {}

  Status ParseAll() {
    while (Peek().kind != Tok::kEnd) {
      MAD_RETURN_IF_ERROR(ParseItem());
    }
    return Status::OK();
  }

  /// Parses exactly one atom (optionally '.'-terminated) against existing
  /// declarations — the query-atom payload of `mondl --query` / madc.
  StatusOr<Atom> ParseSingleAtom() {
    if (Peek().kind != Tok::kIdent) return Error("expected predicate name");
    if (program_->FindPredicate(Peek().text) == nullptr) {
      return Error(StrPrintf("query references undeclared predicate '%s'",
                             Peek().text.c_str()));
    }
    MAD_ASSIGN_OR_RETURN(Atom a, ParseAtom());
    Accept(Tok::kDot);
    if (Peek().kind != Tok::kEnd) return Error("trailing input after atom");
    return a;
  }

  Status ParseFactsOnly() {
    while (Peek().kind != Tok::kEnd) {
      MAD_ASSIGN_OR_RETURN(Atom head, ParseAtom());
      if (Peek().kind != Tok::kDot) {
        return Error("expected '.' after fact");
      }
      Advance();
      MAD_RETURN_IF_ERROR(AddClause(std::move(head), {}, /*had_body=*/false));
    }
    return Status::OK();
  }

 private:
  const Token& Peek(int ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }
  bool Accept(Tok k) {
    if (Peek().kind == k) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status Expect(Tok k, const char* what) {
    if (!Accept(k)) return Error(StrPrintf("expected %s", what));
    return Status::OK();
  }
  Status Error(const std::string& msg) const {
    return Status::ParseError(StrPrintf("line %d col %d: %s", Peek().line,
                                        Peek().col, msg.c_str()));
  }

  /// Source region from the token at index `start_tok` through the most
  /// recently consumed token.
  SourceSpan SpanFrom(size_t start_tok) const {
    const Token& s = tokens_[start_tok < tokens_.size() ? start_tok
                                                        : tokens_.size() - 1];
    const Token& e = tokens_[pos_ > start_tok ? pos_ - 1 : start_tok];
    SourceSpan sp;
    sp.line = s.line;
    sp.col = s.col;
    sp.end_line = e.end_line;
    sp.end_col = e.end_col;
    return sp;
  }

  Status ParseItem() {
    if (Peek().kind == Tok::kDirective) {
      const std::string& d = Peek().text;
      if (d == "decl") return ParseDecl();
      if (d == "constraint") return ParseConstraint();
      if (d == "query") return ParseQuery();
      return Error(StrPrintf("unknown directive '.%s'", d.c_str()));
    }
    return ParseClause();
  }

  // .decl p(a, b, c: min_real) [default]
  Status ParseDecl() {
    Advance();  // .decl
    if (Peek().kind != Tok::kIdent) return Error("expected predicate name");
    PredicateInfo info;
    info.name = Advance().text;
    MAD_RETURN_IF_ERROR(Expect(Tok::kLParen, "'('"));
    bool first = true;
    while (!Accept(Tok::kRParen)) {
      if (!first) MAD_RETURN_IF_ERROR(Expect(Tok::kComma, "','"));
      first = false;
      if (Peek().kind != Tok::kIdent && Peek().kind != Tok::kVar) {
        return Error("expected column name");
      }
      Advance();  // column name (documentation only)
      ++info.arity;
      if (Accept(Tok::kColon)) {
        if (info.has_cost) {
          return Error("only the final argument may be a cost argument");
        }
        if (Peek().kind != Tok::kIdent) return Error("expected domain name");
        std::string domain_name = Advance().text;
        const lattice::CostDomain* domain =
            lattice::DomainRegistry::Global().Find(domain_name);
        if (domain == nullptr) {
          return Error(
              StrPrintf("unknown cost domain '%s'", domain_name.c_str()));
        }
        info.has_cost = true;
        info.domain = domain;
      } else if (info.has_cost) {
        return Error("cost argument must be the final argument");
      }
    }
    if (Peek().kind == Tok::kIdent && Peek().text == "default") {
      Advance();
      if (!info.has_cost) {
        return Error("'default' requires a cost argument");
      }
      info.has_default = true;
    }
    auto declared = program_->DeclarePredicate(std::move(info));
    if (!declared.ok()) return declared.status();
    return Status::OK();
  }

  // .query p(bound, X, _).  — constants are the bound positions of a point
  // query the program expects to serve (consumed by analysis/demand). The
  // predicate must already be declared so a typo'd name fails loudly instead
  // of implicitly declaring a fresh empty predicate.
  Status ParseQuery() {
    Advance();  // .query
    if (Peek().kind != Tok::kIdent) return Error("expected predicate name");
    if (program_->FindPredicate(Peek().text) == nullptr) {
      return Error(StrPrintf(".query references undeclared predicate '%s'",
                             Peek().text.c_str()));
    }
    MAD_ASSIGN_OR_RETURN(Atom a, ParseAtom());
    MAD_RETURN_IF_ERROR(Expect(Tok::kDot, "'.'"));
    program_->AddQuery(std::move(a));
    return Status::OK();
  }

  // .constraint S1, ..., Sn.
  Status ParseConstraint() {
    Advance();  // .constraint
    IntegrityConstraint ic;
    MAD_ASSIGN_OR_RETURN(ic.body, ParseSubgoals());
    MAD_RETURN_IF_ERROR(Expect(Tok::kDot, "'.'"));
    program_->AddConstraint(std::move(ic));
    return Status::OK();
  }

  // head [:- body] .
  Status ParseClause() {
    int clause_line = Peek().line;
    size_t clause_start = pos_;
    MAD_ASSIGN_OR_RETURN(Atom head, ParseAtom());
    last_clause_line_ = clause_line;
    std::vector<Subgoal> body;
    bool had_body = false;
    if (Accept(Tok::kTurnstile)) {
      had_body = true;
      MAD_ASSIGN_OR_RETURN(body, ParseSubgoals());
    }
    MAD_RETURN_IF_ERROR(Expect(Tok::kDot, "'.'"));
    last_clause_line_ = clause_line;
    return AddClause(std::move(head), std::move(body), had_body,
                     SpanFrom(clause_start));
  }

  Status AddClause(Atom head, std::vector<Subgoal> body, bool had_body,
                   SourceSpan span = {}) {
    if (!had_body) {
      // Ground heads become EDB facts; nonground bodyless clauses are rules
      // (caught later by the range-restriction check if unsafe).
      bool ground = true;
      for (const Term& t : head.args) ground = ground && t.is_const();
      if (ground) {
        Fact f;
        f.pred = head.pred;
        int n = head.pred->key_arity();
        for (int i = 0; i < n; ++i) f.key.push_back(head.args[i].constant);
        if (head.pred->has_cost) {
          Value cost = head.args.back().constant;
          if (!head.pred->domain->Contains(cost)) {
            return Status::ParseError(StrPrintf(
                "fact %s: cost value %s outside domain %s",
                f.pred->name.c_str(), cost.ToString().c_str(),
                std::string(head.pred->domain->name()).c_str()));
          }
          f.cost = head.pred->domain->Normalize(cost);
        }
        program_->AddFact(std::move(f));
        return Status::OK();
      }
    }
    Rule rule;
    rule.head = std::move(head);
    rule.body = std::move(body);
    rule.source_line = last_clause_line_;
    rule.span = span;
    program_->AddRule(std::move(rule));
    return Status::OK();
  }

  StatusOr<std::vector<Subgoal>> ParseSubgoals() {
    std::vector<Subgoal> out;
    while (true) {
      MAD_ASSIGN_OR_RETURN(Subgoal sg, ParseSubgoal());
      out.push_back(std::move(sg));
      if (!Accept(Tok::kComma)) break;
    }
    return out;
  }

  StatusOr<Subgoal> ParseSubgoal() {
    if (Accept(Tok::kBang)) {
      MAD_ASSIGN_OR_RETURN(Atom a, ParseAtom());
      return Subgoal::Negative(std::move(a));
    }
    // An atom iff: lower-ident followed by '(' that is not an expression
    // function, OR lower-ident NOT followed by a comparison operator
    // (0-arity predicate).
    if (Peek().kind == Tok::kIdent && !IsExprFunction(Peek().text)) {
      if (Peek(1).kind == Tok::kLParen) {
        MAD_ASSIGN_OR_RETURN(Atom a, ParseAtom());
        return Subgoal::Positive(std::move(a));
      }
      if (!IsComparison(Peek(1).kind)) {
        MAD_ASSIGN_OR_RETURN(Atom a, ParseAtom());
        return Subgoal::Positive(std::move(a));
      }
    }
    // Otherwise: an expression followed by a comparison — either a built-in
    // subgoal or (for '='/'=r' + aggregate name) an aggregate subgoal.
    size_t subgoal_start = pos_;
    MAD_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseExpr());
    Tok op_tok = Peek().kind;
    if (!IsComparison(op_tok)) {
      return Error("expected comparison operator in subgoal");
    }
    Advance();
    bool restricted = op_tok == Tok::kEqR;
    if ((op_tok == Tok::kEq || op_tok == Tok::kEqR) &&
        Peek().kind == Tok::kIdent &&
        lattice::AggregateRegistry::Global().IsAggregateName(Peek().text)) {
      return ParseAggregateSubgoal(std::move(lhs), restricted, subgoal_start);
    }
    if (op_tok == Tok::kEqR) {
      return Error("'=r' is only valid in aggregate subgoals");
    }
    BuiltinSubgoal b;
    MAD_ASSIGN_OR_RETURN(b.op, ToCmpOp(op_tok));
    b.lhs = std::move(lhs);
    MAD_ASSIGN_OR_RETURN(b.rhs, ParseExpr());
    return Subgoal::Builtin(std::move(b));
  }

  StatusOr<Subgoal> ParseAggregateSubgoal(std::unique_ptr<Expr> lhs,
                                          bool restricted,
                                          size_t subgoal_start) {
    AggregateSubgoal agg;
    agg.restricted = restricted;
    // The result term must be a simple variable or constant.
    if (lhs->kind == Expr::Kind::kVar) {
      agg.result = Term::Var(lhs->var);
    } else if (lhs->kind == Expr::Kind::kConst) {
      agg.result = Term::Const(lhs->constant);
    } else {
      return Error("aggregate result must be a variable or constant");
    }
    // A simple result is exactly one token, the one at subgoal_start.
    agg.result.span = tokens_[subgoal_start].Span();
    agg.function_name = Advance().text;
    if (Peek().kind == Tok::kVar) {
      agg.multiset_var = Advance().text;
    }
    MAD_RETURN_IF_ERROR(Expect(Tok::kColon, "':' in aggregate subgoal"));
    if (Accept(Tok::kLParen)) {
      while (true) {
        MAD_ASSIGN_OR_RETURN(Atom a, ParseAtom());
        agg.atoms.push_back(std::move(a));
        if (!Accept(Tok::kComma)) break;
      }
      MAD_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
    } else {
      MAD_ASSIGN_OR_RETURN(Atom a, ParseAtom());
      agg.atoms.push_back(std::move(a));
    }
    agg.span = SpanFrom(subgoal_start);
    MAD_RETURN_IF_ERROR(ResolveAggregate(&agg));
    return Subgoal::Aggregate(std::move(agg));
  }

  /// Determines the multiset's cost domain and resolves the aggregate
  /// function. With an explicit multiset variable E, the domain is the cost
  /// domain of the atoms in which E occupies the cost argument (all such
  /// atoms must agree — the "well typed" requirement of Section 4.2).
  /// Without E, the aggregation is over atom presence, i.e. (B, ≤).
  Status ResolveAggregate(AggregateSubgoal* agg) {
    const lattice::CostDomain* domain = nullptr;
    if (!agg->multiset_var.empty()) {
      for (const Atom& a : agg->atoms) {
        const Term* cost = a.CostTerm();
        if (cost != nullptr && cost->is_var() &&
            cost->var == agg->multiset_var) {
          if (domain != nullptr && domain != a.pred->domain) {
            return Error(StrPrintf(
                "multiset variable %s spans distinct cost domains '%s'/'%s'",
                agg->multiset_var.c_str(), std::string(domain->name()).c_str(),
                std::string(a.pred->domain->name()).c_str()));
          }
          domain = a.pred->domain;
        }
        // E must not occur outside cost arguments.
        for (int i = 0; i < a.pred->key_arity(); ++i) {
          if (a.args[i].is_var() && a.args[i].var == agg->multiset_var) {
            return Error(StrPrintf(
                "multiset variable %s appears in a non-cost argument",
                agg->multiset_var.c_str()));
          }
        }
      }
      if (domain == nullptr) {
        return Error(StrPrintf(
            "multiset variable %s does not appear in any cost argument",
            agg->multiset_var.c_str()));
      }
    } else {
      domain = lattice::BoolOrDomain();
    }
    auto fn = lattice::AggregateRegistry::Global().FindOrCreate(
        agg->function_name, domain);
    if (!fn.ok()) {
      return Error(fn.status().message());
    }
    agg->function = fn.value();
    return Status::OK();
  }

  StatusOr<Atom> ParseAtom() {
    if (Peek().kind != Tok::kIdent) return Error("expected predicate name");
    last_clause_line_ = Peek().line;
    size_t atom_start = pos_;
    std::string name = Advance().text;
    std::vector<Term> args;
    if (Accept(Tok::kLParen)) {
      bool first = true;
      while (!Accept(Tok::kRParen)) {
        if (!first) MAD_RETURN_IF_ERROR(Expect(Tok::kComma, "','"));
        first = false;
        MAD_ASSIGN_OR_RETURN(Term t, ParseTerm());
        args.push_back(std::move(t));
      }
    }
    auto pred = program_->FindOrDeclare(name, static_cast<int>(args.size()));
    if (!pred.ok()) return pred.status();
    Atom a;
    a.pred = pred.value();
    a.args = std::move(args);
    a.span = SpanFrom(atom_start);
    return a;
  }

  /// Parses a set literal "{elem, ...}" of ground terms (numbers, symbols,
  /// booleans, nested sets) into a normalized set value.
  StatusOr<Value> ParseSetLiteral() {
    MAD_RETURN_IF_ERROR(Expect(Tok::kLBrace, "'{'"));
    ValueSet elems;
    bool first = true;
    while (!Accept(Tok::kRBrace)) {
      if (!first) MAD_RETURN_IF_ERROR(Expect(Tok::kComma, "','"));
      first = false;
      MAD_ASSIGN_OR_RETURN(Term t, ParseTerm());
      if (!t.is_const()) {
        return Error("set literals may contain only constants");
      }
      elems.push_back(std::move(t.constant));
    }
    return Value::Set(std::move(elems));
  }

  StatusOr<Term> ParseTerm() {
    const Token& t = Peek();
    size_t term_start = pos_;
    auto spanned = [&](Term term) {
      term.span = SpanFrom(term_start);
      return term;
    };
    switch (t.kind) {
      case Tok::kLBrace: {
        MAD_ASSIGN_OR_RETURN(Value set, ParseSetLiteral());
        return spanned(Term::Const(std::move(set)));
      }
      case Tok::kVar: {
        std::string name = Advance().text;
        if (name == "_") {
          // Anonymous variable: each '_' is a fresh variable.
          return spanned(Term::Var(StrPrintf("_anon%d", anon_counter_++)));
        }
        return spanned(Term::Var(std::move(name)));
      }
      case Tok::kIdent: {
        std::string text = Advance().text;
        if (text == "true") return spanned(Term::Const(Value::Bool(true)));
        if (text == "false") return spanned(Term::Const(Value::Bool(false)));
        return spanned(Term::Const(Value::Symbol(text)));
      }
      case Tok::kString:
        return spanned(Term::Const(Value::Symbol(Advance().text)));
      case Tok::kNumber: {
        const Token& num = Advance();
        return spanned(Term::Const(
            num.is_integer ? Value::Int(static_cast<int64_t>(num.number))
                           : Value::Real(num.number)));
      }
      default:
        return Error("expected term");
    }
  }

  static bool IsExprFunction(const std::string& name) {
    return name == "min2" || name == "max2";
  }

  static bool IsComparison(Tok k) {
    switch (k) {
      case Tok::kEq:
      case Tok::kEqR:
      case Tok::kNe:
      case Tok::kLt:
      case Tok::kLe:
      case Tok::kGt:
      case Tok::kGe:
        return true;
      default:
        return false;
    }
  }

  /// Maps a comparison token to its CmpOp. A non-comparison token (including
  /// '=r', which only callers that already handled aggregates may pass) is a
  /// parse error, never an abort: this runs on untrusted program text, and
  /// under NDEBUG a silent fallback would misparse the subgoal as '='.
  StatusOr<CmpOp> ToCmpOp(Tok k) const {
    switch (k) {
      case Tok::kEq:
        return CmpOp::kEq;
      case Tok::kNe:
        return CmpOp::kNe;
      case Tok::kLt:
        return CmpOp::kLt;
      case Tok::kLe:
        return CmpOp::kLe;
      case Tok::kGt:
        return CmpOp::kGt;
      case Tok::kGe:
        return CmpOp::kGe;
      default:
        return Error("expected comparison operator in subgoal");
    }
  }

  StatusOr<std::unique_ptr<Expr>> ParseExpr() {
    MAD_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParseMulExpr());
    while (Peek().kind == Tok::kPlus || Peek().kind == Tok::kMinus) {
      Expr::Kind k = Advance().kind == Tok::kPlus ? Expr::Kind::kAdd
                                                  : Expr::Kind::kSub;
      MAD_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParseMulExpr());
      lhs = Expr::Binary(k, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  StatusOr<std::unique_ptr<Expr>> ParseMulExpr() {
    MAD_ASSIGN_OR_RETURN(std::unique_ptr<Expr> lhs, ParsePrimary());
    while (Peek().kind == Tok::kStar || Peek().kind == Tok::kSlash) {
      Expr::Kind k = Advance().kind == Tok::kStar ? Expr::Kind::kMul
                                                  : Expr::Kind::kDiv;
      MAD_ASSIGN_OR_RETURN(std::unique_ptr<Expr> rhs, ParsePrimary());
      lhs = Expr::Binary(k, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  StatusOr<std::unique_ptr<Expr>> ParsePrimary() {
    const Token& t = Peek();
    switch (t.kind) {
      case Tok::kNumber: {
        const Token& num = Advance();
        return Expr::Const(num.is_integer
                               ? Value::Int(static_cast<int64_t>(num.number))
                               : Value::Real(num.number));
      }
      case Tok::kVar:
        return Expr::Var(Advance().text);
      case Tok::kString:
        return Expr::Const(Value::Symbol(Advance().text));
      case Tok::kLParen: {
        Advance();
        MAD_ASSIGN_OR_RETURN(std::unique_ptr<Expr> e, ParseExpr());
        MAD_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
        return e;
      }
      case Tok::kIdent: {
        if (IsExprFunction(t.text)) {
          Expr::Kind k =
              t.text == "min2" ? Expr::Kind::kMin2 : Expr::Kind::kMax2;
          Advance();
          MAD_RETURN_IF_ERROR(Expect(Tok::kLParen, "'('"));
          MAD_ASSIGN_OR_RETURN(std::unique_ptr<Expr> a, ParseExpr());
          MAD_RETURN_IF_ERROR(Expect(Tok::kComma, "','"));
          MAD_ASSIGN_OR_RETURN(std::unique_ptr<Expr> b, ParseExpr());
          MAD_RETURN_IF_ERROR(Expect(Tok::kRParen, "')'"));
          return Expr::Binary(k, std::move(a), std::move(b));
        }
        std::string text = Advance().text;
        if (text == "true") return Expr::Const(Value::Bool(true));
        if (text == "false") return Expr::Const(Value::Bool(false));
        return Expr::Const(Value::Symbol(text));
      }
      default:
        return Error("expected expression");
    }
  }

  Program* program_;
  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int anon_counter_ = 0;
  int last_clause_line_ = 0;
};

}  // namespace

StatusOr<Program> ParseProgram(std::string_view source) {
  Program program;
  Lexer lexer(source);
  MAD_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(&program, std::move(tokens));
  MAD_RETURN_IF_ERROR(parser.ParseAll());
  return program;
}

Status ParseRuleInto(Program* program, std::string_view rule_text) {
  Lexer lexer(rule_text);
  MAD_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(program, std::move(tokens));
  return parser.ParseAll();
}

Status ParseFactsInto(Program* program, std::string_view facts_text) {
  Lexer lexer(facts_text);
  MAD_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  Parser parser(program, std::move(tokens));
  return parser.ParseFactsOnly();
}

StatusOr<Atom> ParseQueryAtom(const Program& program,
                              std::string_view atom_text) {
  Lexer lexer(atom_text);
  MAD_ASSIGN_OR_RETURN(std::vector<Token> tokens, lexer.Tokenize());
  // ParseSingleAtom only reads declarations (it rejects undeclared predicate
  // names before FindOrDeclare could mutate), so the const_cast is safe.
  Parser parser(const_cast<Program*>(&program), std::move(tokens));
  return parser.ParseSingleAtom();
}

StatusOr<std::vector<Fact>> ParseFacts(Program* program,
                                       std::string_view facts_text) {
  const size_t before = program->facts().size();
  Status st = ParseFactsInto(program, facts_text);
  // Drain whatever was appended even on error, so a half-parsed payload
  // never leaks facts into the program.
  std::vector<Fact> out = program->TakeFactsFrom(before);
  MAD_RETURN_IF_ERROR(st);
  return out;
}

}  // namespace datalog
}  // namespace mad
