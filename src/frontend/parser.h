// Recursive-descent parser for MiniHPC.
//
// Grammar (EBNF, `//` comments, integers only):
//   program    := func*
//   func       := 'func' ID '(' [ID {',' ID}] ')' block
//   block      := '{' stmt* '}'
//   stmt       := 'var' ID '=' expr ';'
//              | ID '=' (expr | call) ';'
//              | call ';'
//              | 'if' '(' expr ')' block ['else' (block | if-stmt)]
//              | 'while' '(' expr ')' block
//              | 'for' '(' ID '=' expr 'to' expr ')' block
//              | 'return' [expr] ';'
//              | 'print' '(' expr {',' expr} ')' ';'
//              | omp
//   omp        := 'omp' 'parallel' ['num_threads' '(' expr ')'] ['if' '(' expr ')'] block
//              | 'omp' 'single' ['nowait'] block
//              | 'omp' 'master' block
//              | 'omp' 'critical' block
//              | 'omp' 'barrier' ';'
//              | 'omp' 'sections' ['nowait'] '{' {'omp' 'section' block} '}'
//              | 'omp' 'for' ['nowait'] '(' ID '=' expr 'to' expr ')' block
//   call       := NAME '(' [arg {',' arg}] ')'      // user function or mpi_*
//   expr       := ||, &&, comparisons, + - , * / %, unary - !, primaries
//   primary    := INT | ID | builtin '(' ')' | '(' expr ')'
//
// MPI spellings: mpi_init(level) mpi_finalize() mpi_barrier()
//   mpi_bcast(v, root) mpi_reduce(v, op, root) mpi_allreduce(v, op)
//   mpi_gather(v, root) mpi_allgather(v) mpi_scatter(v, root)
//   mpi_alltoall(v) mpi_scan(v, op) mpi_reduce_scatter(v, op)
#pragma once

#include "frontend/ast.h"
#include "frontend/token.h"
#include "support/diagnostics.h"
#include "support/source_manager.h"

#include <vector>

namespace parcoach::frontend {

class Parser {
public:
  /// Deepest nesting accepted. A block (a function body included), an
  /// else-if arm, a parenthesis and an operator each open one level; a chain
  /// such as `1 + 1 + 1` is as deep as its tree, two levels here. Deeper
  /// input is a parse error at the construct that crosses the limit, so
  /// sema, lowering and the engines never recurse further. 256 is clang's
  /// bracket-depth default; under ASan a block level costs the parser about
  /// 11 KB of stack, so an 8 MB stack overflows near 700 levels.
  static constexpr int32_t kMaxNesting = 256;

  /// Parses one buffer into a Program. On syntax errors, reports diagnostics
  /// and returns what was parsed so far (callers must check diags).
  static Program parse(const SourceManager& sm, int32_t file_id,
                       DiagnosticEngine& diags);

  /// Convenience: registers `source` with `sm` under `name`, then parses.
  static Program parse_source(SourceManager& sm, std::string name,
                              std::string source, DiagnosticEngine& diags);
};

} // namespace parcoach::frontend
