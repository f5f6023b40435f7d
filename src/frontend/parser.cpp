#include "frontend/parser.h"

#include "frontend/lexer.h"
#include "support/str.h"

#include <algorithm>
#include <optional>

namespace parcoach::frontend {

namespace {

using ir::Expr;
using ir::ExprPtr;

class ParserImpl {
public:
  ParserImpl(std::vector<Token> toks, DiagnosticEngine& diags)
      : toks_(std::move(toks)), diags_(diags) {}

  Program run() {
    Program p;
    while (!at(Tok::End) && !fatal_) {
      if (at(Tok::KwFunc)) {
        p.funcs.push_back(parse_func());
      } else {
        error(cur().loc, str::cat("expected 'func', got '", cur().text, "'"));
        sync_to_func();
      }
    }
    p.num_stmts = next_stmt_id_;
    p.num_regions = next_region_id_;
    return p;
  }

private:
  // -- Token helpers ---------------------------------------------------------
  const Token& cur() const { return toks_[pos_]; }
  const Token& peek(size_t n = 1) const {
    return toks_[std::min(pos_ + n, toks_.size() - 1)];
  }
  bool at(Tok k) const { return cur().kind == k; }
  Token eat() { return toks_[pos_ == toks_.size() - 1 ? pos_ : pos_++]; }
  bool accept(Tok k) {
    if (!at(k)) return false;
    eat();
    return true;
  }
  /// After a fatal error the parse unwinds without consuming tokens, so a
  /// missing token is a consequence of that error, not a new one.
  Token expect(Tok k, std::string_view what) {
    if (at(k)) return eat();
    if (!fatal_)
      error(cur().loc, str::cat("expected ", to_string(k), " (", what,
                                "), got '", cur().text, "'"));
    fatal_ = true;
    return cur();
  }
  void error(SourceLoc loc, std::string msg) {
    diags_.report(Severity::Error, DiagKind::ParseError, loc, std::move(msg));
  }

  /// One level of nesting for the lifetime of the object.
  struct Nest {
    explicit Nest(int32_t& d) : depth(d) { ++depth; }
    ~Nest() { --depth; }
    int32_t& depth;
  };

  /// False past Parser::kMaxNesting: reports the construct once at `loc` and
  /// stops the parse, so later stages only ever see bounded depth.
  bool within_limit(int32_t depth, SourceLoc loc) {
    if (depth <= Parser::kMaxNesting) return true;
    if (!fatal_)
      error(loc, str::cat("nesting exceeds the limit of ", Parser::kMaxNesting,
                          " levels"));
    fatal_ = true;
    return false;
  }
  void sync_to_func() {
    while (!at(Tok::End) && !at(Tok::KwFunc)) eat();
  }

  StmtPtr make_stmt(StmtKind kind, SourceLoc loc) {
    auto s = std::make_unique<Stmt>();
    s->kind = kind;
    s->loc = loc;
    s->stmt_id = next_stmt_id_++;
    return s;
  }

  // -- Declarations ----------------------------------------------------------
  FuncDecl parse_func() {
    FuncDecl f;
    f.loc = cur().loc;
    expect(Tok::KwFunc, "function declaration");
    const Token name = eat();
    if (!name.ident_like())
      error(name.loc, "expected function name");
    f.name = std::string(name.text);
    expect(Tok::LParen, "parameter list");
    if (!at(Tok::RParen)) {
      do {
        const Token p = eat();
        if (!p.ident_like()) {
          error(p.loc, "expected parameter name");
          break;
        }
        f.params.emplace_back(p.text);
      } while (accept(Tok::Comma));
    }
    expect(Tok::RParen, "parameter list");
    f.body = parse_block();
    return f;
  }

  std::vector<StmtPtr> parse_block() {
    std::vector<StmtPtr> body;
    Nest nest(depth_);
    if (!within_limit(depth_, cur().loc)) return body;
    expect(Tok::LBrace, "block");
    while (!at(Tok::RBrace) && !at(Tok::End) && !fatal_) {
      if (auto s = parse_stmt()) body.push_back(std::move(s));
    }
    expect(Tok::RBrace, "block");
    return body;
  }

  // -- Statements ------------------------------------------------------------
  StmtPtr parse_stmt() {
    switch (cur().kind) {
      case Tok::KwVar: return parse_var_decl();
      case Tok::KwIf: return parse_if();
      case Tok::KwWhile: return parse_while();
      case Tok::KwFor: return parse_for();
      case Tok::KwReturn: return parse_return();
      case Tok::KwPrint: return parse_print();
      case Tok::KwOmp: return parse_omp();
      case Tok::Ident: return parse_assign_or_call();
      default:
        error(cur().loc, str::cat("unexpected token '", cur().text, "'"));
        fatal_ = true;
        return nullptr;
    }
  }

  StmtPtr parse_var_decl() {
    auto s = make_stmt(StmtKind::VarDecl, cur().loc);
    expect(Tok::KwVar, "variable declaration");
    const Token name = eat();
    if (!name.ident_like()) error(name.loc, "expected variable name");
    s->name = std::string(name.text);
    expect(Tok::Assign, "initializer");
    // `var x = f(...)` / `var x = mpi_xxx(...)` become call statements with
    // a declared target; sema records the declaration.
    if (is_call_start()) {
      StmtPtr call = parse_call_stmt(std::string(name.text), /*declares=*/true);
      call->loc = s->loc;
      expect(Tok::Semi, "statement end");
      return call;
    }
    s->value = parse_expr();
    expect(Tok::Semi, "statement end");
    return s;
  }

  bool is_call_start() const {
    return cur().ident_like() && peek().kind == Tok::LParen &&
           !is_builtin_name(cur().text);
  }

  static bool is_builtin_name(std::string_view name) {
    return name == "rank" || name == "size" || name == "omp_thread_num" ||
           name == "omp_num_threads";
  }

  StmtPtr parse_assign_or_call() {
    const Token first = cur();
    if (peek().kind == Tok::LParen) {
      // Bare call statement.
      StmtPtr s = parse_call_stmt("", false);
      expect(Tok::Semi, "statement end");
      return s;
    }
    // Assignment.
    eat(); // name
    auto s = make_stmt(StmtKind::Assign, first.loc);
    s->name = std::string(first.text);
    expect(Tok::Assign, "assignment");
    if (is_call_start()) {
      StmtPtr call = parse_call_stmt(std::string(first.text), /*declares=*/false);
      call->loc = first.loc;
      expect(Tok::Semi, "statement end");
      return call;
    }
    s->value = parse_expr();
    expect(Tok::Semi, "statement end");
    return s;
  }

  /// Parses NAME '(' args ')' where NAME may be an mpi_* spelling or a user
  /// function. `target` is the assignment destination ("" for none).
  StmtPtr parse_call_stmt(std::string target, bool declares) {
    const Token name = eat();
    const std::string callee(name.text);
    if (callee == "mpi_init") return parse_mpi_init(name.loc, target, declares);
    if (callee == "mpi_abort") return parse_mpi_abort(name.loc, target);
    if (callee == "mpi_send" || callee == "mpi_recv")
      return parse_mpi_p2p(callee == "mpi_send", name.loc, std::move(target),
                           declares);
    if (callee == "mpi_wait" || callee == "mpi_test")
      return parse_mpi_wait(callee == "mpi_test", name.loc, std::move(target),
                            declares);
    if (callee == "mpi_waitall")
      return parse_mpi_waitall(name.loc, std::move(target));
    if (auto kind = ir::collective_from_name(callee)) {
      if (ir::is_comm_op(*kind))
        return parse_mpi_comm_op(*kind, name.loc, std::move(target), declares);
      return parse_mpi_collective(*kind, name.loc, std::move(target), declares);
    }

    auto s = make_stmt(StmtKind::CallStmt, name.loc);
    s->callee = callee;
    s->name = std::move(target);
    s->is_mpi_init = false;
    if (declares) s->declares_target = true;
    expect(Tok::LParen, "call");
    if (!at(Tok::RParen)) {
      do s->args.push_back(parse_expr());
      while (accept(Tok::Comma));
    }
    expect(Tok::RParen, "call");
    return s;
  }

  /// mpi_send(value, dest, tag);   NAME = mpi_recv(source, tag);
  StmtPtr parse_mpi_p2p(bool is_send, SourceLoc loc, std::string target,
                        bool declares) {
    auto s = make_stmt(is_send ? StmtKind::MpiSend : StmtKind::MpiRecv, loc);
    if (is_send && !target.empty())
      error(loc, "mpi_send does not produce a value");
    if (!is_send && target.empty())
      error(loc, "mpi_recv must be assigned to a variable");
    s->name = std::move(target);
    if (declares) s->declares_target = true;
    expect(Tok::LParen, "point-to-point call");
    if (is_send) {
      s->mpi_value = parse_expr();
      expect(Tok::Comma, "destination rank");
    }
    s->mpi_root = parse_expr(); // dest (send) / source (recv)
    expect(Tok::Comma, "message tag");
    s->hi = parse_expr(); // tag
    expect(Tok::RParen, "point-to-point call");
    return s;
  }

  /// [NAME =] mpi_wait(request);   NAME = mpi_test(request);
  StmtPtr parse_mpi_wait(bool is_test, SourceLoc loc, std::string target,
                         bool declares) {
    auto s = make_stmt(is_test ? StmtKind::MpiTest : StmtKind::MpiWait, loc);
    if (is_test && target.empty())
      error(loc, "mpi_test must be assigned to a variable");
    s->name = std::move(target);
    if (declares) s->declares_target = true;
    expect(Tok::LParen, is_test ? "mpi_test" : "mpi_wait");
    s->mpi_value = parse_expr(); // the request
    expect(Tok::RParen, is_test ? "mpi_test" : "mpi_wait");
    return s;
  }

  /// mpi_waitall(r1, r2, ...);
  StmtPtr parse_mpi_waitall(SourceLoc loc, const std::string& target) {
    if (!target.empty())
      error(loc, "mpi_waitall does not produce a value");
    auto s = make_stmt(StmtKind::MpiWaitall, loc);
    expect(Tok::LParen, "mpi_waitall");
    do s->args.push_back(parse_expr());
    while (accept(Tok::Comma));
    expect(Tok::RParen, "mpi_waitall");
    return s;
  }

  StmtPtr parse_mpi_init(SourceLoc loc, const std::string& target, bool declares) {
    if (!target.empty())
      error(loc, "mpi_init does not produce a value");
    (void)declares;
    auto s = make_stmt(StmtKind::MpiCall, loc);
    s->is_mpi_init = true;
    expect(Tok::LParen, "mpi_init");
    const Token lv = eat();
    if (auto level = ir::thread_level_from_name(lv.text)) {
      s->init_level = *level;
    } else {
      error(lv.loc, str::cat("unknown thread level '", lv.text,
                             "' (want single|funneled|serialized|multiple)"));
    }
    expect(Tok::RParen, "mpi_init");
    return s;
  }

  /// mpi_abort(code); — kills the whole world with the given exit code.
  StmtPtr parse_mpi_abort(SourceLoc loc, const std::string& target) {
    if (!target.empty())
      error(loc, "mpi_abort does not produce a value");
    auto s = make_stmt(StmtKind::MpiCall, loc);
    s->is_mpi_abort = true;
    expect(Tok::LParen, "mpi_abort");
    s->mpi_value = parse_expr(); // the error code
    expect(Tok::RParen, "mpi_abort");
    return s;
  }

  StmtPtr parse_mpi_collective(ir::CollectiveKind kind, SourceLoc loc,
                               std::string target, bool declares) {
    auto s = make_stmt(StmtKind::MpiCall, loc);
    s->coll = kind;
    s->name = std::move(target);
    if (declares) s->declares_target = true;
    if (ir::is_nonblocking(kind) && s->name.empty())
      error(loc, str::cat(ir::to_string(kind), " produces a request that must "
                          "be assigned (it would leak immediately)"));
    expect(Tok::LParen, "collective call");
    if (ir::takes_payload(kind)) {
      s->mpi_value = parse_expr();
      if (ir::has_reduce_op(kind)) {
        expect(Tok::Comma, "reduction operator");
        const Token op = eat();
        if (auto r = ir::reduce_op_from_name(op.text))
          s->reduce_op = *r;
        else
          error(op.loc, str::cat("unknown reduction op '", op.text, "'"));
      }
      if (ir::has_root(kind)) {
        expect(Tok::Comma, "root rank");
        s->mpi_root = parse_expr();
      }
      // Optional trailing communicator argument (default: world).
      if (accept(Tok::Comma)) s->mpi_comm = parse_expr();
    } else if (!s->name.empty() && !ir::produces_value(kind)) {
      error(loc, str::cat(ir::to_string(kind), " does not produce a value"));
    }
    // Payload-less collectives take the communicator as their only argument
    // (`mpi_barrier(c)`); mpi_finalize stays world-only by definition.
    if (!ir::takes_payload(kind) && !at(Tok::RParen)) {
      if (kind == ir::CollectiveKind::Finalize)
        error(loc, "mpi_finalize takes no arguments");
      s->mpi_comm = parse_expr();
    }
    expect(Tok::RParen, "collective call");
    return s;
  }

  /// var C = mpi_comm_split(color, key);  var D = mpi_comm_dup([comm]);
  /// mpi_comm_free(comm);
  /// ULFM recovery forms:
  ///   mpi_comm_set_errhandler(mode[, comm]);   // 0 = abort, 1 = return
  ///   mpi_comm_revoke(comm);
  ///   var S = mpi_comm_shrink(comm);           // survivor communicator
  ///   var F = mpi_comm_agree(comm, flag);      // fault-tolerant AND
  StmtPtr parse_mpi_comm_op(ir::CollectiveKind kind, SourceLoc loc,
                            std::string target, bool declares) {
    auto s = make_stmt(StmtKind::MpiCall, loc);
    s->coll = kind;
    s->name = std::move(target);
    if (declares) s->declares_target = true;
    if (ir::is_comm_ctor(kind) && s->name.empty())
      error(loc, str::cat(ir::to_string(kind), " produces a communicator that "
                          "must be assigned"));
    if (kind == ir::CollectiveKind::CommAgree && s->name.empty())
      error(loc, "mpi_comm_agree produces the agreed flag, which must be "
                 "assigned");
    if (!ir::produces_value(kind) && !s->name.empty())
      error(loc, str::cat(ir::to_string(kind), " does not produce a value"));
    expect(Tok::LParen, "communicator call");
    switch (kind) {
      case ir::CollectiveKind::CommSplit:
        s->mpi_value = parse_expr(); // color
        expect(Tok::Comma, "split key");
        s->mpi_root = parse_expr(); // key
        if (accept(Tok::Comma)) s->mpi_comm = parse_expr(); // parent comm
        break;
      case ir::CollectiveKind::CommDup:
        if (!at(Tok::RParen)) s->mpi_comm = parse_expr(); // default: world
        break;
      case ir::CollectiveKind::CommSetErrhandler:
        s->mpi_value = parse_expr(); // mode: 0 = abort, 1 = return
        if (accept(Tok::Comma)) s->mpi_comm = parse_expr(); // default: world
        break;
      case ir::CollectiveKind::CommShrink:
        // The (possibly revoked) parent; default: world.
        if (!at(Tok::RParen)) s->mpi_comm = parse_expr();
        break;
      case ir::CollectiveKind::CommAgree: {
        // mpi_comm_agree(flag) on world, or mpi_comm_agree(comm, flag).
        ExprPtr first = parse_expr();
        if (accept(Tok::Comma)) {
          s->mpi_comm = std::move(first);
          s->mpi_value = parse_expr();
        } else {
          s->mpi_value = std::move(first);
        }
        break;
      }
      case ir::CollectiveKind::CommRevoke:
        if (!at(Tok::RParen)) s->mpi_comm = parse_expr(); // default: world
        break;
      default: // CommFree: just the handle (world cannot be freed)
        s->mpi_comm = parse_expr();
        break;
    }
    expect(Tok::RParen, "communicator call");
    return s;
  }

  StmtPtr parse_if() {
    auto s = make_stmt(StmtKind::If, cur().loc);
    expect(Tok::KwIf, "if");
    expect(Tok::LParen, "condition");
    s->value = parse_expr();
    expect(Tok::RParen, "condition");
    s->body = parse_block();
    if (accept(Tok::KwElse)) {
      if (at(Tok::KwIf)) {
        Nest nest(depth_);
        if (within_limit(depth_, cur().loc))
          s->else_body.push_back(parse_if());
      } else {
        s->else_body = parse_block();
      }
    }
    return s;
  }

  StmtPtr parse_while() {
    auto s = make_stmt(StmtKind::While, cur().loc);
    expect(Tok::KwWhile, "while");
    expect(Tok::LParen, "condition");
    s->value = parse_expr();
    expect(Tok::RParen, "condition");
    s->body = parse_block();
    return s;
  }

  StmtPtr parse_for() {
    auto s = make_stmt(StmtKind::For, cur().loc);
    expect(Tok::KwFor, "for");
    expect(Tok::LParen, "loop header");
    const Token name = eat();
    if (!name.ident_like()) error(name.loc, "expected loop variable");
    s->name = std::string(name.text);
    expect(Tok::Assign, "loop header");
    s->lo = parse_expr();
    expect(Tok::KwTo, "loop bound");
    s->hi = parse_expr();
    expect(Tok::RParen, "loop header");
    s->body = parse_block();
    return s;
  }

  StmtPtr parse_return() {
    auto s = make_stmt(StmtKind::Return, cur().loc);
    expect(Tok::KwReturn, "return");
    if (!at(Tok::Semi)) s->value = parse_expr();
    expect(Tok::Semi, "statement end");
    return s;
  }

  StmtPtr parse_print() {
    auto s = make_stmt(StmtKind::Print, cur().loc);
    expect(Tok::KwPrint, "print");
    expect(Tok::LParen, "print");
    do s->args.push_back(parse_expr());
    while (accept(Tok::Comma));
    expect(Tok::RParen, "print");
    expect(Tok::Semi, "statement end");
    return s;
  }

  // -- OpenMP constructs -----------------------------------------------------
  StmtPtr parse_omp() {
    const SourceLoc loc = cur().loc;
    expect(Tok::KwOmp, "omp directive");
    switch (cur().kind) {
      case Tok::KwParallel: {
        eat();
        auto s = make_stmt(StmtKind::OmpParallel, loc);
        s->region_id = next_region_id_++;
        // Clauses in any order.
        for (;;) {
          if (at(Tok::KwNumThreads)) {
            eat();
            expect(Tok::LParen, "num_threads clause");
            s->num_threads = parse_expr();
            expect(Tok::RParen, "num_threads clause");
          } else if (at(Tok::KwIf)) {
            eat();
            expect(Tok::LParen, "if clause");
            s->if_clause = parse_expr();
            expect(Tok::RParen, "if clause");
          } else {
            break;
          }
        }
        s->body = parse_block();
        return s;
      }
      case Tok::KwSingle: {
        eat();
        auto s = make_stmt(StmtKind::OmpSingle, loc);
        s->region_id = next_region_id_++;
        s->nowait = accept(Tok::KwNowait);
        s->body = parse_block();
        return s;
      }
      case Tok::KwMaster: {
        eat();
        auto s = make_stmt(StmtKind::OmpMaster, loc);
        s->region_id = next_region_id_++;
        s->body = parse_block();
        return s;
      }
      case Tok::KwCritical: {
        eat();
        auto s = make_stmt(StmtKind::OmpCritical, loc);
        s->region_id = next_region_id_++;
        s->body = parse_block();
        return s;
      }
      case Tok::KwBarrier: {
        eat();
        auto s = make_stmt(StmtKind::OmpBarrier, loc);
        expect(Tok::Semi, "barrier");
        return s;
      }
      case Tok::KwSections: {
        eat();
        auto s = make_stmt(StmtKind::OmpSections, loc);
        s->region_id = next_region_id_++;
        s->nowait = accept(Tok::KwNowait);
        expect(Tok::LBrace, "sections");
        while (at(Tok::KwOmp) && peek().kind == Tok::KwSection) {
          const SourceLoc sloc = cur().loc;
          eat(); // omp
          eat(); // section
          auto sec = make_stmt(StmtKind::OmpSection, sloc);
          sec->region_id = next_region_id_++;
          sec->body = parse_block();
          s->body.push_back(std::move(sec));
        }
        expect(Tok::RBrace, "sections");
        if (s->body.empty())
          error(loc, "omp sections requires at least one omp section");
        return s;
      }
      case Tok::KwFor: {
        eat();
        auto s = make_stmt(StmtKind::OmpFor, loc);
        s->region_id = next_region_id_++;
        s->nowait = accept(Tok::KwNowait);
        expect(Tok::LParen, "loop header");
        const Token name = eat();
        if (!name.ident_like()) error(name.loc, "expected loop variable");
        s->name = std::string(name.text);
        expect(Tok::Assign, "loop header");
        s->lo = parse_expr();
        expect(Tok::KwTo, "loop bound");
        s->hi = parse_expr();
        expect(Tok::RParen, "loop header");
        s->body = parse_block();
        return s;
      }
      default:
        error(cur().loc, str::cat("unknown omp directive '", cur().text, "'"));
        fatal_ = true;
        return nullptr;
    }
  }

  // -- Expressions (precedence climbing) --------------------------------------
  //
  // Each expression parse leaves the height of the tree it returns in
  // expr_height_ (a leaf is 1). Operator chains are built in a loop, not by
  // recursion, so their height is what keeps them within the nesting limit.
  ExprPtr parse_expr() { return parse_binary(0); }

  struct BinOp {
    int level; // precedence, 0 = loosest; every level is left-associative
    ir::BinaryOp op;
  };

  static std::optional<BinOp> binary_op(Tok k) {
    using ir::BinaryOp;
    switch (k) {
      case Tok::OrOr: return BinOp{0, BinaryOp::Or};
      case Tok::AndAnd: return BinOp{1, BinaryOp::And};
      case Tok::Lt: return BinOp{2, BinaryOp::Lt};
      case Tok::Le: return BinOp{2, BinaryOp::Le};
      case Tok::Gt: return BinOp{2, BinaryOp::Gt};
      case Tok::Ge: return BinOp{2, BinaryOp::Ge};
      case Tok::EqEq: return BinOp{2, BinaryOp::Eq};
      case Tok::Ne: return BinOp{2, BinaryOp::Ne};
      case Tok::Plus: return BinOp{3, BinaryOp::Add};
      case Tok::Minus: return BinOp{3, BinaryOp::Sub};
      case Tok::Star: return BinOp{4, BinaryOp::Mul};
      case Tok::Slash: return BinOp{4, BinaryOp::Div};
      case Tok::Percent: return BinOp{4, BinaryOp::Mod};
      default: return std::nullopt;
    }
  }

  /// Parses operands joined by operators of precedence `min_level` or
  /// tighter.
  ExprPtr parse_binary(int min_level) {
    ExprPtr lhs = parse_unary();
    int32_t height = expr_height_;
    for (std::optional<BinOp> b;
         !fatal_ && (b = binary_op(cur().kind)) && b->level >= min_level;) {
      const SourceLoc loc = eat().loc;
      ExprPtr rhs = parse_binary(b->level + 1);
      height = 1 + std::max(height, expr_height_);
      lhs = Expr::binary(b->op, std::move(lhs), std::move(rhs), loc);
      if (!within_limit(depth_ + height - 1, loc)) break;
    }
    expr_height_ = height;
    return lhs;
  }

  ExprPtr parse_unary() {
    if (!at(Tok::Minus) && !at(Tok::Not)) return parse_primary();
    const ir::UnaryOp op = at(Tok::Minus) ? ir::UnaryOp::Neg : ir::UnaryOp::Not;
    const SourceLoc loc = eat().loc;
    Nest nest(depth_);
    if (!within_limit(depth_, loc)) return Expr::int_lit(0, loc);
    ExprPtr operand = parse_unary();
    ++expr_height_;
    return Expr::unary(op, std::move(operand), loc);
  }

  ExprPtr parse_primary() {
    const Token t = cur();
    expr_height_ = 1;
    if (t.kind == Tok::Int) {
      eat();
      return Expr::int_lit(t.int_val, t.loc);
    }
    if (t.kind == Tok::LParen) {
      eat();
      Nest nest(depth_);
      if (!within_limit(depth_, t.loc)) return Expr::int_lit(0, t.loc);
      ExprPtr e = parse_expr();
      expect(Tok::RParen, "parenthesized expression");
      return e;
    }
    if (t.ident_like()) {
      if (is_builtin_name(t.text) && peek().kind == Tok::LParen) {
        eat();
        expect(Tok::LParen, "builtin call");
        expect(Tok::RParen, "builtin call");
        ir::Builtin b = ir::Builtin::Rank;
        if (t.text == "size") b = ir::Builtin::Size;
        else if (t.text == "omp_thread_num") b = ir::Builtin::OmpThreadNum;
        else if (t.text == "omp_num_threads") b = ir::Builtin::OmpNumThreads;
        return Expr::builtin_call(b, t.loc);
      }
      if (peek().kind == Tok::LParen) {
        error(t.loc, str::cat("call to '", t.text,
                              "' cannot appear inside an expression; assign "
                              "its result to a variable first"));
        fatal_ = true;
        return Expr::int_lit(0, t.loc);
      }
      eat();
      return Expr::var_ref(std::string(t.text), t.loc);
    }
    error(t.loc, str::cat("expected expression, got '", t.text, "'"));
    fatal_ = true;
    if (!at(Tok::End)) eat();
    return Expr::int_lit(0, t.loc);
  }

  std::vector<Token> toks_;
  DiagnosticEngine& diags_;
  size_t pos_ = 0;
  bool fatal_ = false;
  int32_t next_stmt_id_ = 0;
  int32_t next_region_id_ = 0;
  int32_t depth_ = 0;       // open blocks, else-if arms, parens, unary ops
  int32_t expr_height_ = 0; // height of the last expression parsed
};

} // namespace

Program Parser::parse(const SourceManager& sm, int32_t file_id,
                      DiagnosticEngine& diags) {
  ParserImpl impl(Lexer::lex(sm, file_id, diags), diags);
  return impl.run();
}

Program Parser::parse_source(SourceManager& sm, std::string name,
                             std::string source, DiagnosticEngine& diags) {
  const int32_t id = sm.add_buffer(std::move(name), std::move(source));
  return parse(sm, id, diags);
}

} // namespace parcoach::frontend
