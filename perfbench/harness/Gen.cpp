//===----------------------------------------------------------------------===//
//
// Seeded workload generators for the MS2 benchmark (see Gen.h).
//
// A unit is a small program tree. Macro nodes in it render either as the
// invocation the engine expands or, through instantiate(), as this file's
// model of the macro's template. Instantiation follows the expander's
// order — a macro's own gensyms first, then the invocations its output
// contains, in document order — so the `__msq_<prefix>_<n>` names line up.
//
//===----------------------------------------------------------------------===//

#include "Gen.h"

#include "parser/Parser.h"
#include "synbase/SyntaxBase.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

namespace pb {

//===----------------------------------------------------------------------===//
// Library
//===----------------------------------------------------------------------===//

std::string benchLibrary(int K) {
  std::string Lib = R"MSQ(
/* Readers and writers for enumerated types (paper section 4). */
syntax decl myenum[] {| $$id::name { $$+/, id::ids } ; |}
{
    return list(
        `[enum $name {$ids};],
        `[void $(symbolconc("print_", name))(int arg)
          {
              switch (arg) {
                  $(map(lambda (@id id)
                        `{| stmt :: case $id: printf("%s", $(pstring(id))); |},
                        ids))
              }
          }],
        `[int $(symbolconc("read_", name))(void)
          {
              char s[100];
              getline(s, 100);
              $(map(lambda (@id id)
                    `{| stmt :: if (!strcmp(s, $(pstring(id)))) return $id; |},
                    ids))
              return -1;
          }]);
}

/* Dynamic binding (paper section 4). */
syntax stmt dynamic_bind
    {| { $$typespec::type $$id::name = $$exp::init } { $$*stmt::body } |}
{
    @id newname = gensym();
    return `{
        $type $newname = $name;
        $name = $init;
        $body;
        $name = $newname;
    };
}

/* Exceptions (paper section 4). */
syntax stmt throw {| $$exp::value |}
{
    if (simple_expression(value))
        return `{
            if (exception_ptr == 0)
                error("No handler for ", $value);
            else
                longjmp(exception_ptr, $value);
        };
    return `{
        int the_value = $value;
        if (exception_ptr == 0)
            error("No handler for ", the_value);
        else
            longjmp(exception_ptr, the_value);
    };
}

syntax stmt catch {| $$exp::tag $$stmt::handler $$stmt::body |}
{
    return `{
        int *old_exception_ptr = exception_ptr;
        int jmp_buf[2];
        int result;
        result = setjump(jmp_buf);
        if (result == 0) {
            exception_ptr = jmp_buf;
            $body;
            exception_ptr = old_exception_ptr;
        } else {
            exception_ptr = old_exception_ptr;
            if (result == $tag)
                $handler;
            else
                throw result;
        }
    };
}

/* A loop with an optional step clause. */
syntax stmt step_loop {| ( $$id::v , $$exp::count ) $$?step exp::step do $$stmt::body |}
{
    if (present(step))
        return `{ for ($v = 0; $v < $count; $v = $v + $step) $body; };
    return `{ for ($v = 0; $v < $count; $v = $v + 1) $body; };
}

/* One call per argument of a repetition. */
syntax stmt call_each {| $$id::f ( $$+/, exp::args ) ; |}
{
    return `{ $(map(lambda (@exp a) `{| stmt :: $f($a); |}, args)) };
}

/* The macro whose body the daemon workload's library reloads edit. */
syntax stmt tally_up {| ( $$id::v ) ; |}
{
    return `{ $v = $v + TALLY_K; };
}
)MSQ";
  std::string::size_type At = Lib.find("TALLY_K");
  Lib.replace(At, 7, std::to_string(K));
  return Lib;
}

namespace {

//===----------------------------------------------------------------------===//
// Program trees
//===----------------------------------------------------------------------===//

struct E {
  enum Kind { Var, Int, Str, Bin, Call, Paren, Cond } K = Var;
  std::string S; ///< name, operator, callee, or string literal body
  long V = 0;
  std::vector<E> Kids;
};

E var(std::string N) { return {E::Var, std::move(N), 0, {}}; }
E lit(long V) { return {E::Int, "", V, {}}; }
E str(std::string S) { return {E::Str, std::move(S), 0, {}}; }
E paren(E X) { return {E::Paren, "", 0, {std::move(X)}}; }
E bin(std::string Op, E L, E R) {
  return {E::Bin, std::move(Op), 0, {std::move(L), std::move(R)}};
}
E assign(E L, E R) { return bin("=", std::move(L), std::move(R)); }
E call(std::string F, std::vector<E> Args) {
  return {E::Call, std::move(F), 0, std::move(Args)};
}
E cond(E C, E T, E F) {
  return {E::Cond, "", 0, {std::move(C), std::move(T), std::move(F)}};
}

bool isSimple(const E &X) { return X.K == E::Var || X.K == E::Int; }

int precOf(const std::string &Op) {
  static const std::pair<const char *, int> Table[] = {
      {"*", 10}, {"/", 10}, {"%", 10},  {"+", 9},  {"-", 9},  {"<<", 8},
      {">>", 8}, {"<", 7},  {">", 7},   {"<=", 7}, {">=", 7}, {"==", 6},
      {"!=", 6}, {"&", 5},  {"^", 4},   {"|", 3},  {"&&", 2}, {"||", 1},
      {"=", 0}};
  for (const auto &[Name, P] : Table)
    if (Op == Name)
      return P;
  return 0;
}

/// Wraps \p Child in parentheses where C precedence would otherwise regroup
/// it under a binary operator of precedence \p Parent.
E operand(E Child, int Parent, bool Right) {
  if ((Child.K == E::Bin &&
       (precOf(Child.S) < Parent || (Right && precOf(Child.S) == Parent))) ||
      Child.K == E::Cond)
    return paren(std::move(Child));
  return Child;
}

E binop(const std::string &Op, E L, E R) {
  int P = precOf(Op);
  return bin(Op, operand(std::move(L), P, false),
             operand(std::move(R), P, true));
}

enum class MacroKind {
  RepeatN,
  SwapVars,
  ForeachOf,
  MinAssign,
  MaxAssign,
  DynamicBind,
  Throw,
  Catch,
  StepLoop,
  CallEach,
  TallyUp,
};

struct S {
  enum Kind { ExprS, Decl, If, While, For, Block, Return, Macro } K = ExprS;
  E X;            ///< expression / condition / return value
  E Init, Step;   ///< for-loop clauses
  std::string Ty; ///< Decl type
  std::string Dtor; ///< Decl declarator ("x", "*p", "buf[2]")
  bool HasInit = false;
  std::vector<S> Kids; ///< block items, if branches, loop body
  // Macro invocations:
  MacroKind M = MacroKind::RepeatN;
  std::vector<E> Args;
  std::string Id1, Id2;
  bool Opt = false;
};

S exprS(E X) {
  S St;
  St.X = std::move(X);
  return St;
}
S declS(std::string Ty, std::string Dtor) {
  S St;
  St.K = S::Decl;
  St.Ty = std::move(Ty);
  St.Dtor = std::move(Dtor);
  return St;
}
S declInit(std::string Ty, std::string Dtor, E Init) {
  S St = declS(std::move(Ty), std::move(Dtor));
  St.HasInit = true;
  St.X = std::move(Init);
  return St;
}
S block(std::vector<S> Kids) {
  S St;
  St.K = S::Block;
  St.Kids = std::move(Kids);
  return St;
}
S ifS(E C, S Then) {
  S St;
  St.K = S::If;
  St.X = std::move(C);
  St.Kids.push_back(std::move(Then));
  return St;
}
S ifElse(E C, S Then, S Else) {
  S St = ifS(std::move(C), std::move(Then));
  St.Kids.push_back(std::move(Else));
  return St;
}
S whileS(E C, S Body) {
  S St;
  St.K = S::While;
  St.X = std::move(C);
  St.Kids.push_back(std::move(Body));
  return St;
}
S forS(E Init, E C, E Step, S Body) {
  S St;
  St.K = S::For;
  St.Init = std::move(Init);
  St.X = std::move(C);
  St.Step = std::move(Step);
  St.Kids.push_back(std::move(Body));
  return St;
}
S returnS(E X) {
  S St;
  St.K = S::Return;
  St.X = std::move(X);
  return St;
}
S macro(MacroKind M) {
  S St;
  St.K = S::Macro;
  St.M = M;
  return St;
}

/// A top-level item.
struct Top {
  enum Kind { Global, Struct, Func, Enum } K = Global;
  std::string Name;
  std::vector<std::string> Ids; ///< struct members / enum enumerators
  std::vector<std::string> Params;
  std::vector<S> Body;
};

//===----------------------------------------------------------------------===//
// Instantiation: the oracle's model of every macro template
//===----------------------------------------------------------------------===//

struct ExpandCtx {
  unsigned Gensym = 0; ///< the engine's per-unit gensym counter
  int K = 1;           ///< tally_up's body constant
  std::string fresh(const char *Prefix) {
    return std::string("__msq_") + Prefix + "_" + std::to_string(Gensym++);
  }
};

/// throw's template for value \p V.
S throwTemplate(const E &V) {
  E Ptr = var("exception_ptr");
  auto Raise = [&](const E &Val) {
    return ifElse(binop("==", Ptr, lit(0)),
                  exprS(call("error", {str("No handler for "), Val})),
                  exprS(call("longjmp", {Ptr, Val})));
  };
  if (isSimple(V))
    return block({Raise(V)});
  return block({declInit("int", "the_value", V), Raise(var("the_value"))});
}

/// One macro node, instantiated; invocations in its output stay as macro
/// nodes for the caller's walk to expand in document order.
S instantiate(const S &M, ExpandCtx &C) {
  switch (M.M) {
  case MacroKind::RepeatN: {
    std::string I = C.fresh("rep");
    return block({declS("int", I),
                  forS(assign(var(I), lit(0)), binop("<", var(I), M.Args[0]),
                       assign(var(I), binop("+", var(I), lit(1))),
                       M.Kids[0])});
  }
  case MacroKind::SwapVars: {
    std::string T = C.fresh("swap");
    return block({declS("int", T), exprS(assign(var(T), var(M.Id1))),
                  exprS(assign(var(M.Id1), var(M.Id2))),
                  exprS(assign(var(M.Id2), var(T)))});
  }
  case MacroKind::ForeachOf: {
    std::vector<S> Copies;
    for (const E &Item : M.Args)
      Copies.push_back(block({block({declS("int", M.Id1),
                                     exprS(assign(var(M.Id1), Item)),
                                     M.Kids[0]})}));
    return block(std::move(Copies));
  }
  case MacroKind::MinAssign:
  case MacroKind::MaxAssign: {
    const char *Op = M.M == MacroKind::MinAssign ? "<" : ">";
    E A = paren(M.Args[0]), B = paren(M.Args[1]);
    return exprS(assign(var(M.Id1), cond(bin(Op, A, B), A, B)));
  }
  case MacroKind::DynamicBind: {
    std::string T = C.fresh("g");
    std::vector<S> Items = {declInit("int", T, var(M.Id1)),
                            exprS(assign(var(M.Id1), M.Args[0]))};
    for (const S &B : M.Kids)
      Items.push_back(B);
    Items.push_back(exprS(assign(var(M.Id1), var(T))));
    return block(std::move(Items));
  }
  case MacroKind::Throw:
    return throwTemplate(M.Args[0]);
  case MacroKind::Catch: {
    E Ptr = var("exception_ptr"), Old = var("old_exception_ptr");
    S Rethrow = macro(MacroKind::Throw);
    Rethrow.Args = {var("result")};
    return block(
        {declInit("int", "*old_exception_ptr", Ptr), declS("int", "jmp_buf[2]"),
         declS("int", "result"),
         exprS(assign(var("result"), call("setjump", {var("jmp_buf")}))),
         ifElse(binop("==", var("result"), lit(0)),
                block({exprS(assign(Ptr, var("jmp_buf"))), M.Kids[1],
                       exprS(assign(Ptr, Old))}),
                block({exprS(assign(Ptr, Old)),
                       ifElse(binop("==", var("result"), M.Args[0]), M.Kids[0],
                              Rethrow)}))});
  }
  case MacroKind::StepLoop: {
    E Step = M.Opt ? M.Args[1] : lit(1);
    return block({forS(assign(var(M.Id1), lit(0)),
                       binop("<", var(M.Id1), M.Args[0]),
                       assign(var(M.Id1), binop("+", var(M.Id1), Step)),
                       M.Kids[0])});
  }
  case MacroKind::CallEach: {
    std::vector<S> Calls;
    for (const E &A : M.Args)
      Calls.push_back(exprS(call(M.Id1, {A})));
    return block(std::move(Calls));
  }
  case MacroKind::TallyUp:
    return block({exprS(assign(var(M.Id1), binop("+", var(M.Id1), lit(C.K))))});
  }
  return block({});
}

void expandStmt(S &St, ExpandCtx &C) {
  if (St.K == S::Macro) {
    St = instantiate(St, C);
    expandStmt(St, C);
    return;
  }
  for (S &Kid : St.Kids)
    expandStmt(Kid, C);
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

void renderE(const E &X, bool Sx, std::string &Out) {
  switch (X.K) {
  case E::Var:
    Out += X.S;
    return;
  case E::Int:
    Out += std::to_string(X.V);
    return;
  case E::Str:
    Out += '"';
    Out += X.S;
    Out += '"';
    return;
  case E::Bin:
    if (Sx) {
      Out += '(' + X.S + ' ';
      renderE(X.Kids[0], Sx, Out);
      Out += ' ';
      renderE(X.Kids[1], Sx, Out);
      Out += ')';
    } else {
      renderE(X.Kids[0], Sx, Out);
      Out += ' ' + X.S + ' ';
      renderE(X.Kids[1], Sx, Out);
    }
    return;
  case E::Call:
    Out += Sx ? "(call " + X.S : X.S + "(";
    for (size_t I = 0; I != X.Kids.size(); ++I) {
      Out += Sx ? " " : (I ? ", " : "");
      renderE(X.Kids[I], Sx, Out);
    }
    Out += ')';
    return;
  case E::Paren:
    Out += Sx ? "(paren " : "(";
    renderE(X.Kids[0], Sx, Out);
    Out += ')';
    return;
  case E::Cond:
    if (Sx) {
      Out += "(?: ";
      renderE(X.Kids[0], Sx, Out);
      Out += ' ';
      renderE(X.Kids[1], Sx, Out);
      Out += ' ';
      renderE(X.Kids[2], Sx, Out);
      Out += ')';
    } else {
      renderE(X.Kids[0], Sx, Out);
      Out += " ? ";
      renderE(X.Kids[1], Sx, Out);
      Out += " : ";
      renderE(X.Kids[2], Sx, Out);
    }
    return;
  }
}

std::string renderE(const E &X, bool Sx) {
  std::string Out;
  renderE(X, Sx, Out);
  return Out;
}

void indent(std::string &Out, unsigned Depth) { Out.append(Depth * 4, ' '); }

void renderS(const S &St, bool Sx, std::string &Out, unsigned D);

/// A nested statement (branch or loop body) on its own line.
void renderBody(const S &St, bool Sx, std::string &Out, unsigned D) {
  Out += '\n';
  renderS(St, Sx, Out, D + 1);
}

void renderMacroC(const S &St, std::string &Out, unsigned D) {
  switch (St.M) {
  case MacroKind::RepeatN:
    Out += "repeat_n (" + renderE(St.Args[0], false) + ")";
    renderBody(St.Kids[0], false, Out, D);
    return;
  case MacroKind::SwapVars:
    Out += "swap_vars " + St.Id1 + ", " + St.Id2 + ";\n";
    return;
  case MacroKind::ForeachOf: {
    Out += "foreach_of " + St.Id1 + " in (";
    for (size_t I = 0; I != St.Args.size(); ++I)
      Out += (I ? ", " : "") + renderE(St.Args[I], false);
    Out += ")";
    renderBody(St.Kids[0], false, Out, D);
    return;
  }
  case MacroKind::MinAssign:
  case MacroKind::MaxAssign:
    Out += St.Id1 + (St.M == MacroKind::MinAssign ? " = min_of(" : " = max_of(") +
           renderE(St.Args[0], false) + ", " + renderE(St.Args[1], false) +
           ");\n";
    return;
  case MacroKind::DynamicBind:
    Out += "dynamic_bind {int " + St.Id1 + " = " + renderE(St.Args[0], false) +
           "} {\n";
    for (const S &B : St.Kids)
      renderS(B, false, Out, D + 1);
    indent(Out, D);
    Out += "}\n";
    return;
  case MacroKind::Throw:
    Out += "throw " + renderE(St.Args[0], false) + ";\n";
    return;
  case MacroKind::Catch:
    Out += "catch " + renderE(St.Args[0], false);
    renderBody(St.Kids[0], false, Out, D);
    renderS(St.Kids[1], false, Out, D + 1);
    return;
  case MacroKind::StepLoop:
    Out += "step_loop (" + St.Id1 + ", " + renderE(St.Args[0], false) + ")";
    if (St.Opt)
      Out += " step " + renderE(St.Args[1], false);
    Out += " do";
    renderBody(St.Kids[0], false, Out, D);
    return;
  case MacroKind::CallEach: {
    Out += "call_each " + St.Id1 + "(";
    for (size_t I = 0; I != St.Args.size(); ++I)
      Out += (I ? ", " : "") + renderE(St.Args[I], false);
    Out += ");\n";
    return;
  }
  case MacroKind::TallyUp:
    Out += "tally_up (" + St.Id1 + ");\n";
    return;
  }
}

void renderMacroSexpr(const S &St, std::string &Out, unsigned D) {
  switch (St.M) {
  case MacroKind::RepeatN:
    Out += "(repeat_n " + renderE(St.Args[0], true);
    renderBody(St.Kids[0], true, Out, D);
    break;
  case MacroKind::SwapVars:
    Out += "(swap_vars " + St.Id1 + " " + St.Id2;
    break;
  case MacroKind::ForeachOf: {
    Out += "(foreach_of " + St.Id1 + " (";
    for (size_t I = 0; I != St.Args.size(); ++I)
      Out += (I ? " " : "") + renderE(St.Args[I], true);
    Out += ")";
    renderBody(St.Kids[0], true, Out, D);
    break;
  }
  case MacroKind::MinAssign:
  case MacroKind::MaxAssign:
    Out += "(= " + St.Id1 +
           (St.M == MacroKind::MinAssign ? " (min_of " : " (max_of ") +
           renderE(St.Args[0], true) + " " + renderE(St.Args[1], true) + ")";
    break;
  case MacroKind::StepLoop:
    Out += "(step_loop " + St.Id1 + " " + renderE(St.Args[0], true) + " " +
           (St.Opt ? renderE(St.Args[1], true) : std::string("()"));
    renderBody(St.Kids[0], true, Out, D);
    break;
  default:
    // Only the macros above are ever generated in S-expression units.
    std::fprintf(stderr, "perfbench: macro not renderable as sexpr\n");
    std::abort();
  }
  Out += ")\n";
}

void renderS(const S &St, bool Sx, std::string &Out, unsigned D) {
  indent(Out, D);
  switch (St.K) {
  case S::ExprS:
    Out += renderE(St.X, Sx);
    Out += Sx ? "\n" : ";\n";
    return;
  case S::Decl:
    if (Sx) {
      Out += "(var " + St.Ty + " " + St.Dtor;
      if (St.HasInit)
        Out += " " + renderE(St.X, true);
      Out += ")\n";
    } else {
      Out += St.Ty + " " + St.Dtor;
      if (St.HasInit)
        Out += " = " + renderE(St.X, false);
      Out += ";\n";
    }
    return;
  case S::If:
    if (Sx) {
      Out += "(if " + renderE(St.X, true);
      for (const S &K : St.Kids)
        renderBody(K, true, Out, D);
      indent(Out, D);
      Out += ")\n";
    } else {
      Out += "if (" + renderE(St.X, false) + ")";
      renderBody(St.Kids[0], false, Out, D);
      if (St.Kids.size() > 1) {
        indent(Out, D);
        Out += "else";
        renderBody(St.Kids[1], false, Out, D);
      }
    }
    return;
  case S::While:
    if (Sx) {
      Out += "(while " + renderE(St.X, true);
      renderBody(St.Kids[0], true, Out, D);
      indent(Out, D);
      Out += ")\n";
    } else {
      Out += "while (" + renderE(St.X, false) + ")";
      renderBody(St.Kids[0], false, Out, D);
    }
    return;
  case S::For:
    if (Sx) {
      Out += "(for " + renderE(St.Init, true) + " " + renderE(St.X, true) +
             " " + renderE(St.Step, true);
      renderBody(St.Kids[0], true, Out, D);
      indent(Out, D);
      Out += ")\n";
    } else {
      Out += "for (" + renderE(St.Init, false) + "; " + renderE(St.X, false) +
             "; " + renderE(St.Step, false) + ")";
      renderBody(St.Kids[0], false, Out, D);
    }
    return;
  case S::Block:
    Out += Sx ? "(begin\n" : "{\n";
    for (const S &K : St.Kids)
      renderS(K, Sx, Out, D + 1);
    indent(Out, D);
    Out += Sx ? ")\n" : "}\n";
    return;
  case S::Return:
    Out += Sx ? "(return " + renderE(St.X, true) + ")\n"
              : "return " + renderE(St.X, false) + ";\n";
    return;
  case S::Macro:
    if (Sx)
      renderMacroSexpr(St, Out, D);
    else
      renderMacroC(St, Out, D);
    return;
  }
}

/// Renders one top-level item; \p Expanded selects the oracle form.
void renderTop(const Top &T, bool Sx, bool Expanded, std::string &Out) {
  switch (T.K) {
  case Top::Global:
    Out += Sx ? "(var int " + T.Name + ")\n" : "int " + T.Name + ";\n";
    return;
  case Top::Struct:
    Out += "struct " + T.Name + " {\n";
    for (const std::string &M : T.Ids)
      Out += "    int " + M + ";\n";
    Out += "};\n";
    return;
  case Top::Enum: {
    std::string Ids;
    for (size_t I = 0; I != T.Ids.size(); ++I)
      Ids += (I ? ", " : "") + T.Ids[I];
    if (!Expanded) {
      Out += "myenum " + T.Name + " {" + Ids + "};\n";
      return;
    }
    Out += "enum " + T.Name + " {" + Ids + "};\n";
    Out += "void print_" + T.Name + "(int arg)\n{\n    switch (arg) {\n";
    for (const std::string &Id : T.Ids)
      Out += "        case " + Id + ": printf(\"%s\", \"" + Id + "\");\n";
    Out += "    }\n}\n";
    Out += "int read_" + T.Name +
           "(void)\n{\n    char s[100];\n    getline(s, 100);\n";
    for (const std::string &Id : T.Ids)
      Out += "    if (!strcmp(s, \"" + Id + "\")) return " + Id + ";\n";
    Out += "    return -1;\n}\n";
    return;
  }
  case Top::Func:
    if (Sx) {
      Out += "(defun int " + T.Name + " (";
      for (size_t I = 0; I != T.Params.size(); ++I)
        Out += (I ? " (int " : "(int ") + T.Params[I] + ")";
      Out += ")\n";
      for (const S &St : T.Body)
        renderS(St, true, Out, 1);
      Out += ")\n";
    } else {
      Out += "int " + T.Name + "(";
      for (size_t I = 0; I != T.Params.size(); ++I)
        Out += (I ? ", int " : "int ") + T.Params[I];
      Out += ")\n{\n";
      for (const S &St : T.Body)
        renderS(St, false, Out, 1);
      Out += "}\n";
    }
    return;
  }
}

struct UnitTree {
  std::vector<Top> Items;
  bool UsesTally = false;
  bool Broken = false; ///< contains a min_of with a compound argument
};

std::string renderUnit(const UnitTree &U, bool Sx) {
  std::string Out;
  for (const Top &T : U.Items)
    renderTop(T, Sx, false, Out);
  return Out;
}

std::string renderExpected(const UnitTree &U, bool Sx, int K) {
  ExpandCtx C;
  C.K = K;
  std::string Out;
  for (const Top &T : U.Items) {
    if (T.K != Top::Func) {
      renderTop(T, Sx, true, Out);
      continue;
    }
    Top Copy = T;
    for (S &St : Copy.Body)
      expandStmt(St, C);
    renderTop(Copy, Sx, true, Out);
  }
  return Out;
}

//===----------------------------------------------------------------------===//
// Random programs
//===----------------------------------------------------------------------===//

/// Which macros a generator may use, and how densely.
struct Mix {
  unsigned MacroPercent = 0;   ///< chance a statement slot is an invocation
  bool PaperMacros = false;    ///< dynamic_bind, throw/catch, step_loop, ...
  bool Tally = false;          ///< tally_up (daemon units)
  unsigned MaxNest = 1;        ///< invocation nesting depth
  unsigned ExprDepth = 2;
};

class FuncGen {
public:
  FuncGen(Rng &R, const Mix &X, bool Sx, std::vector<std::string> Globals)
      : R(R), X(X), Sx(Sx), Globals(std::move(Globals)) {}

  /// A function body of roughly \p Stmts statements.
  std::vector<S> body(unsigned Locals, unsigned Stmts) {
    Vars = {"a", "b"};
    std::vector<S> Out;
    for (unsigned I = 0; I != Locals; ++I) {
      std::string N = "x" + std::to_string(I);
      Out.push_back(declS("int", N));
      Vars.push_back(N);
      LocalInts.push_back(N);
    }
    for (unsigned I = 0; I != Stmts; ++I)
      Out.push_back(stmt(0, 0));
    Out.push_back(returnS(expr(X.ExprDepth)));
    return Out;
  }

  bool usedTally() const { return UsedTally; }

private:
  std::string anyVar() { return Vars[R.below(unsigned(Vars.size()))]; }
  std::string local() { return LocalInts[R.below(unsigned(LocalInts.size()))]; }
  std::string fn() { return "fn_" + std::to_string(R.below(40)); }

  E leaf() {
    if (R.chance(30))
      return lit(long(R.below(100)));
    if (!Globals.empty() && R.chance(15))
      return var(Globals[R.below(unsigned(Globals.size()))]);
    return var(anyVar());
  }

  E expr(unsigned Depth) {
    if (Depth == 0 || R.chance(25))
      return leaf();
    static const char *Ops[] = {"+", "-", "*", "/", "%", "<<", ">>",
                                "&", "|", "^", "+", "-", "*"};
    if (R.chance(20)) {
      std::vector<E> Args;
      unsigned N = 1 + R.below(3);
      for (unsigned I = 0; I != N; ++I)
        Args.push_back(expr(Depth - 1));
      return call(fn(), std::move(Args));
    }
    return binop(Ops[R.below(13)], expr(Depth - 1), expr(Depth - 1));
  }

  E condition() {
    static const char *Rel[] = {"<", ">", "<=", ">=", "==", "!="};
    E C = binop(Rel[R.below(6)], expr(1), expr(1));
    if (R.chance(30))
      C = binop(R.chance(50) ? "&&" : "||", std::move(C),
                binop(Rel[R.below(6)], leaf(), leaf()));
    return C;
  }

  /// A simple macro argument: an identifier or a literal.
  E simpleArg() {
    return R.chance(40) ? lit(long(1 + R.below(9))) : var(anyVar());
  }
  /// A count argument: binds tighter than the `<` it is spliced under.
  E countArg() {
    unsigned P = R.below(3);
    if (P == 0)
      return lit(long(2 + R.below(30)));
    if (P == 1)
      return var(anyVar());
    return binop("+", var(anyVar()), lit(long(1 + R.below(9))));
  }

  S plain(unsigned Nest) {
    unsigned P = R.below(100);
    if (P < 55)
      return exprS(assign(var(local()), expr(X.ExprDepth)));
    if (P < 70) {
      std::vector<E> Args;
      unsigned N = 1 + R.below(3);
      for (unsigned I = 0; I != N; ++I)
        Args.push_back(expr(X.ExprDepth - 1));
      return exprS(call(fn(), std::move(Args)));
    }
    if (Nest >= 2)
      return exprS(assign(var(local()), expr(X.ExprDepth)));
    if (P < 82) {
      S Then = smallBlock(Nest + 1);
      if (R.chance(40))
        return ifElse(condition(), std::move(Then), smallBlock(Nest + 1));
      return ifS(condition(), std::move(Then));
    }
    if (P < 90)
      return whileS(condition(), smallBlock(Nest + 1));
    std::string I = local();
    return forS(assign(var(I), lit(0)),
                binop("<", var(I), lit(long(1 + R.below(50)))),
                assign(var(I), binop("+", var(I), lit(1))),
                smallBlock(Nest + 1));
  }

  S smallBlock(unsigned Nest) {
    std::vector<S> Items;
    unsigned N = 1 + R.below(3);
    for (unsigned I = 0; I != N; ++I)
      Items.push_back(stmt(Nest, 0));
    return block(std::move(Items));
  }

  /// A macro body: a plain statement, or a block that may nest another
  /// invocation.
  S macroBody(unsigned MacroNest) {
    if (MacroNest + 1 < X.MaxNest && R.chance(50)) {
      std::vector<S> Items = {invocation(MacroNest + 1)};
      if (R.chance(50))
        Items.push_back(exprS(assign(var(local()), expr(1))));
      return block(std::move(Items));
    }
    if (R.chance(50))
      return exprS(assign(var(local()), expr(1)));
    return block({exprS(assign(var(local()), expr(1))),
                  exprS(call(fn(), {simpleArg()}))});
  }

  S invocation(unsigned MacroNest) {
    unsigned Choices = Sx ? 5 : (X.PaperMacros ? 11 : 5);
    unsigned P = R.below(Choices);
    if (X.Tally && R.chance(25)) {
      UsedTally = true;
      S M = macro(MacroKind::TallyUp);
      M.Id1 = local();
      return M;
    }
    switch (P) {
    case 0: {
      S M = macro(MacroKind::RepeatN);
      M.Args = {countArg()};
      M.Kids = {macroBody(MacroNest)};
      return M;
    }
    case 1: {
      S M = macro(MacroKind::SwapVars);
      M.Id1 = local();
      do
        M.Id2 = local();
      while (M.Id2 == M.Id1);
      return M;
    }
    case 2: {
      S M = macro(MacroKind::ForeachOf);
      // Loop variables are fresh names, so the per-copy `int v;` never
      // shadows a variable another macro's var_type query depends on.
      M.Id1 = "k" + std::to_string(R.below(4));
      unsigned N = 1 + R.below(4);
      for (unsigned I = 0; I != N; ++I)
        M.Args.push_back(simpleArg());
      M.Kids = {macroBody(MacroNest)};
      return M;
    }
    case 3: {
      S M = macro(R.chance(50) ? MacroKind::MinAssign : MacroKind::MaxAssign);
      M.Id1 = local();
      M.Args = {simpleArg(), simpleArg()};
      return M;
    }
    case 4: {
      S M = macro(MacroKind::StepLoop);
      M.Id1 = local();
      M.Args = {countArg()};
      M.Opt = R.chance(50);
      if (M.Opt)
        M.Args.push_back(lit(long(1 + R.below(4))));
      M.Kids = {macroBody(MacroNest)};
      return M;
    }
    case 5:
    case 6: {
      S M = macro(MacroKind::DynamicBind);
      M.Id1 = Globals[R.below(unsigned(Globals.size()))];
      M.Args = {simpleArg()};
      M.Kids = {exprS(call(fn(), {var(M.Id1)}))};
      if (MacroNest + 1 < X.MaxNest && R.chance(50))
        M.Kids.push_back(invocation(MacroNest + 1));
      return M;
    }
    case 7:
    case 8: {
      S M = macro(MacroKind::Throw);
      M.Args = {R.chance(60) ? simpleArg() : call(fn(), {simpleArg()})};
      return M;
    }
    case 9: {
      S M = macro(MacroKind::Catch);
      M.Args = {lit(long(1 + R.below(8)))};
      S Body = macroBody(MacroNest);
      if (Body.K != S::Block)
        Body = block({std::move(Body)});
      S Throw = macro(MacroKind::Throw);
      Throw.Args = {R.chance(50) ? M.Args[0] : simpleArg()};
      Body.Kids.push_back(std::move(Throw));
      M.Kids = {block({exprS(assign(var(local()), lit(1)))}), std::move(Body)};
      return M;
    }
    default: {
      S M = macro(MacroKind::CallEach);
      M.Id1 = fn();
      unsigned N = 1 + R.below(4);
      for (unsigned I = 0; I != N; ++I)
        M.Args.push_back(R.chance(70) ? simpleArg()
                                      : binop("+", var(anyVar()), lit(1)));
      return M;
    }
    }
  }

  S stmt(unsigned Nest, unsigned MacroNest) {
    if (X.MacroPercent && R.chance(X.MacroPercent))
      return invocation(MacroNest);
    return plain(Nest);
  }

  Rng &R;
  Mix X;
  bool Sx;
  std::vector<std::string> Globals;
  std::vector<std::string> Vars;
  std::vector<std::string> LocalInts;
  bool UsedTally = false;
};

/// Globals, structs, optional myenum derivations, then functions.
UnitTree genUnit(Rng &R, const Mix &X, bool Sx, const std::string &Tag,
                 unsigned Funcs, unsigned StmtsPerFunc, unsigned Structs,
                 unsigned Enums) {
  UnitTree U;
  std::vector<std::string> Globals;
  unsigned NG = 2 + R.below(3);
  for (unsigned I = 0; I != NG; ++I) {
    Top G;
    G.Name = "g" + Tag + "_" + std::to_string(I);
    Globals.push_back(G.Name);
    U.Items.push_back(G);
  }
  if (!Sx) {
    for (unsigned I = 0; I != Structs; ++I) {
      Top T;
      T.K = Top::Struct;
      T.Name = "s" + Tag + "_" + std::to_string(I);
      unsigned NM = 2 + R.below(5);
      for (unsigned M = 0; M != NM; ++M)
        T.Ids.push_back("m" + std::to_string(M));
      U.Items.push_back(T);
    }
    for (unsigned I = 0; I != Enums; ++I) {
      Top T;
      T.K = Top::Enum;
      T.Name = "e" + Tag + "_" + std::to_string(I);
      unsigned NI = 2 + R.below(4);
      for (unsigned M = 0; M != NI; ++M)
        T.Ids.push_back(T.Name + "_v" + std::to_string(M));
      U.Items.push_back(T);
    }
  }
  for (unsigned F = 0; F != Funcs; ++F) {
    FuncGen G(R, X, Sx, Globals);
    Top T;
    T.K = Top::Func;
    T.Name = "f" + Tag + "_" + std::to_string(F);
    T.Params = {"a", "b"};
    T.Body = G.body(3 + R.below(3), StmtsPerFunc);
    U.UsesTally |= G.usedTally();
    U.Items.push_back(T);
  }
  return U;
}

/// FNV-1a: a seed mixer that is the same in every standard library.
uint64_t mix(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : S)
    H = (H ^ C) * 0x100000001b3ull;
  return H;
}

size_t countLines(const std::string &S) {
  size_t N = 0;
  for (char C : S)
    N += C == '\n';
  return N;
}

/// A one-function unit of exactly \p Lines source lines: drawn until one
/// fits, then padded with one-line assignments. Equal sizes keep a
/// workload's lines-per-request, and so its throughput, from depending on
/// which units a seed happens to draw. \p NeedTally redraws units that
/// never invoke tally_up.
UnitTree sizedUnit(Rng &R, const Mix &X, bool Sx, const std::string &Tag,
                   unsigned Stmts, bool Enum, size_t Lines, bool NeedTally) {
  for (unsigned Try = 0;; ++Try) {
    UnitTree U = genUnit(R, X, Sx, Tag, 1, Stmts, 0, Enum ? 1 : 0);
    size_t Have = countLines(renderUnit(U, Sx));
    if ((Have > Lines || (NeedTally && !U.UsesTally)) && Try < 1000)
      continue;
    std::vector<S> &Body = U.Items.back().Body;
    for (; Have < Lines; ++Have)
      Body.insert(Body.end() - 1,
                  exprS(assign(var("x0"), binop("+", var("a"),
                                                lit(long(R.below(100)))))));
    return U;
  }
}

GenUnit finish(const UnitTree &U, std::string Name, bool Sx, bool Tally) {
  GenUnit G;
  G.Name = std::move(Name);
  G.Base = Sx ? "sexpr" : "";
  G.Source = renderUnit(U, Sx);
  G.Lines = countLines(G.Source);
  G.UsesTally = U.UsesTally;
  G.ExpectError = U.Broken;
  if (!U.Broken) {
    int Variants = Tally && U.UsesTally ? LibraryVariants : 1;
    for (int K = 1; K <= LibraryVariants; ++K)
      G.Expected.push_back(K <= Variants ? renderExpected(U, Sx, K)
                                         : G.Expected.front());
  }
  return G;
}

} // namespace

//===----------------------------------------------------------------------===//
// Workloads
//===----------------------------------------------------------------------===//

std::vector<GenUnit> genColdFrontend(uint64_t Seed, unsigned Units) {
  Rng R(Seed ^ 0xF0F0ull);
  Mix X;
  X.MacroPercent = 3; // one stdlib invocation per ~30-50 lines
  X.MaxNest = 1;
  X.ExprDepth = 3;
  std::vector<GenUnit> Out;
  for (unsigned I = 0; I != Units; ++I) {
    std::string Tag = std::to_string(I);
    UnitTree U = genUnit(R, X, false, Tag, 48, 12, 8, 0);
    Out.push_back(finish(U, "frontend_" + Tag + ".c", false, false));
  }
  return Out;
}

std::vector<GenUnit> genColdMacros(uint64_t Seed, unsigned Units) {
  Rng R(Seed ^ 0x3C3Cull);
  std::vector<GenUnit> Out;
  for (unsigned I = 0; I != Units; ++I) {
    // Fixed shares, not per-unit coin flips, so every seed carries the
    // same mix of bases and derivers.
    bool Sx = I % 5 == 4;
    Mix X;
    X.MacroPercent = 60;
    X.PaperMacros = true;
    X.MaxNest = 3;
    X.ExprDepth = 1;
    std::string Tag = std::to_string(I);
    UnitTree U = sizedUnit(R, X, Sx, Tag, 6, !Sx && I % 3 == 0, 40, false);
    Out.push_back(finish(U, "macros_" + Tag + (Sx ? ".sexp" : ".c"), Sx,
                         false));
  }
  return Out;
}

std::vector<GenUnit> genDaemonUnits(uint64_t Seed, unsigned Units,
                                    const std::string &Prefix,
                                    unsigned TallyPercent) {
  Rng R(Seed ^ 0xDAE0ull ^ mix(Prefix));
  std::vector<GenUnit> Out;
  for (unsigned I = 0; I != Units; ++I) {
    Mix X;
    X.MacroPercent = 40;
    X.PaperMacros = true;
    X.Tally = R.chance(TallyPercent);
    X.MaxNest = 2;
    X.ExprDepth = 1;
    std::string Tag = Prefix + std::to_string(I);
    UnitTree U = sizedUnit(R, X, false, Tag, 6, false, 36,
                           TallyPercent == 100);
    Out.push_back(finish(U, Prefix + "_" + std::to_string(I) + ".c", false,
                         true));
  }
  return Out;
}

std::vector<GenUnit> genEditorVersions(uint64_t Seed, const std::string &Name,
                                       unsigned Versions, unsigned ErrorEvery) {
  Rng R(Seed ^ 0xED17ull ^ mix(Name));
  std::vector<GenUnit> Out;
  for (unsigned V = 0; V != Versions; ++V) {
    Mix X;
    X.MacroPercent = 40;
    X.PaperMacros = true;
    X.Tally = true;
    X.MaxNest = 2;
    X.ExprDepth = 1;
    UnitTree U = genUnit(R, X, false, "d" + std::to_string(V), 1, 5, 0, 0);
    if (ErrorEvery && V % ErrorEvery == ErrorEvery - 1) {
      // min_of refuses a compound argument with a meta_error.
      S M = macro(MacroKind::MinAssign);
      M.Id1 = "x0";
      M.Args = {call("fn_0", {var("a")}), var("b")};
      std::vector<S> &Body = U.Items.back().Body;
      Body.insert(Body.end() - 1, M);
      U.Broken = true;
    }
    Out.push_back(finish(U, Name, false, false));
  }
  return Out;
}

/// Printed parse of macro-free \p Text in base \p Base ("" = C): the
/// oracle side of the correctness check. Sets \p Ok to false when the text
/// does not parse cleanly (a generator defect).
static std::string printedParse(const std::string &Base,
                                const std::string &Text, bool &Ok) {
  msq::SourceManager SM;
  msq::CompilationContext CC(SM);
  const msq::SyntaxBase *SB = msq::syntaxBaseByName(Base);
  uint32_t Id = SM.addBuffer("oracle", Text);
  msq::TranslationUnit *TU = SB->parseUnit(CC, Id, {}, nullptr);
  Ok = CC.Diags.errorCount() == 0;
  if (!Ok)
    std::fprintf(stderr, "%s", CC.Diags.renderAll().c_str());
  msq::PrintOptions PO;
  PO.AllowPlaceholders = false;
  return SB->print(TU, PO);
}

bool resolveOracles(std::vector<GenUnit> &Units) {
  for (GenUnit &U : Units)
    for (std::string &Want : U.Expected) {
      bool Ok = false;
      Want = printedParse(U.Base, Want, Ok);
      if (!Ok) {
        std::fprintf(stderr, "perfbench: oracle text of %s does not parse\n",
                     U.Name.c_str());
        return false;
      }
    }
  return true;
}

} // namespace pb
