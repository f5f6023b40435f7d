#include "ir/printer.h"

#include "support/str.h"

namespace parcoach::ir {

namespace {

// Every piece of the text is appended to one caller-owned string; `put`
// spells a line's pieces in order, as a stream insertion chain would.
void add(std::string& out, std::string_view s) { out += s; }
void add(std::string& out, char c) { out += c; }
void add(std::string& out, int32_t v) { str::append_int(out, v); }
void add(std::string& out, const Expr& e) { append_expr(out, e); }

template <typename... Ts>
void put(std::string& out, const Ts&... parts) {
  (add(out, parts), ...);
}

void put_list(std::string& out, const std::vector<ExprPtr>& args) {
  bool first = true;
  for (const auto& a : args) {
    if (!first) out += ", ";
    append_expr(out, *a);
    first = false;
  }
}

/// "var = " when the instruction has a result variable.
void put_result(std::string& out, const Instruction& in) {
  if (!in.var.empty()) put(out, in.var, " = ");
}

void append_instr(std::string& out, const Instruction& in) {
  out += to_string(in.op);
  switch (in.op) {
    case Opcode::Assign:
      put(out, ' ', in.var, " = ", *in.expr);
      break;
    case Opcode::Print:
      out += ' ';
      put_list(out, in.args);
      break;
    case Opcode::Call:
      out += ' ';
      put_result(out, in);
      put(out, in.callee, '(');
      put_list(out, in.args);
      out += ')';
      break;
    case Opcode::CollComm:
      out += ' ';
      put_result(out, in);
      out += to_string(in.collective);
      if (in.collective == CollectiveKind::CommSplit) {
        if (in.args.size() > 0) put(out, " color=", *in.args[0]);
        if (in.args.size() > 1) put(out, " key=", *in.args[1]);
      } else if (in.collective == CollectiveKind::CommAgree &&
                 !in.args.empty()) {
        put(out, " flag=", *in.args[0]);
      } else if (in.collective == CollectiveKind::CommSetErrhandler &&
                 !in.args.empty()) {
        put(out, " mode=", *in.args[0]);
      } else if (!in.args.empty()) {
        put(out, " value=", *in.args[0]);
      }
      if (in.root) put(out, " root=", *in.root);
      if (in.reduce_op) put(out, " op=", to_string(*in.reduce_op));
      if (in.comm) put(out, " comm=", *in.comm);
      break;
    case Opcode::MpiInit:
      put(out, ' ', to_string(in.thread_level));
      break;
    case Opcode::MpiAbort:
      put(out, ' ', *in.args[0]);
      break;
    case Opcode::SendMsg:
      put(out, " value=", *in.args[0], " dest=", *in.root, " tag=", *in.expr);
      break;
    case Opcode::RecvMsg:
      out += ' ';
      put_result(out, in);
      put(out, "src=", *in.root, " tag=", *in.expr);
      break;
    case Opcode::WaitReq:
    case Opcode::TestReq:
      out += ' ';
      put_result(out, in);
      put(out, "req=", *in.args[0]);
      break;
    case Opcode::WaitAllReq:
      out += " reqs=";
      put_list(out, in.args);
      break;
    case Opcode::OmpBegin:
      put(out, ' ', to_string(in.omp), " #", in.region_id);
      if (in.num_threads) put(out, " num_threads=", *in.num_threads);
      if (in.if_clause) put(out, " if=", *in.if_clause);
      if (in.nowait) out += " nowait";
      break;
    case Opcode::OmpEnd:
      put(out, ' ', to_string(in.omp), " #", in.region_id);
      break;
    case Opcode::ImplicitBarrier:
      put(out, " #", in.region_id);
      break;
    case Opcode::ExplicitBarrier:
      break;
    case Opcode::Br:
      break;
    case Opcode::CondBr:
      put(out, ' ', *in.expr);
      break;
    case Opcode::Return:
      if (in.expr) put(out, ' ', *in.expr);
      break;
    case Opcode::CheckCC:
      put(out, ' ', to_string(in.collective));
      break;
    case Opcode::CheckCCFinal:
      break;
    case Opcode::CheckMono:
    case Opcode::RegionEnter:
    case Opcode::RegionExit:
      put(out, " #", in.region_id);
      break;
  }
}

void append_function(std::string& out, const Function& fn) {
  put(out, "func ", fn.name, '(');
  for (size_t i = 0; i < fn.params.size(); ++i) {
    if (i) out += ", ";
    out += fn.params[i];
  }
  put(out, ") entry=bb", fn.entry, " exit=bb", fn.exit, " {\n");
  for (const auto& bb : fn.blocks()) {
    put(out, "bb", bb.id, ':');
    if (!bb.succs.empty()) {
      out += "  ; succs:";
      for (BlockId s : bb.succs) put(out, " bb", s);
    }
    out += '\n';
    for (const auto& in : bb.instrs) {
      out += "  ";
      append_instr(out, in);
      out += '\n';
    }
  }
  out += "}\n";
}

} // namespace

std::string to_text(const Function& fn) {
  std::string out;
  append_function(out, fn);
  return out;
}

std::string to_text(const Module& m) {
  std::string out;
  for (const auto& f : m.functions()) {
    append_function(out, *f);
    out += '\n';
  }
  return out;
}

} // namespace parcoach::ir
