//===- perfbench/Generator.cpp --------------------------------------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//

#include "Generator.h"

#include "cfg/CfgBuilder.h"
#include "lang/Parser.h"

#include <algorithm>
#include <utility>

using namespace perfbench;

const char *perfbench::familyName(Family F) {
  switch (F) {
  case Family::Symbolic:
    return "symbolic";
  case Family::FixedNp:
    return "fixed-np";
  case Family::Mixed:
    return "mixed";
  case Family::Kernel:
    return "kernel";
  }
  return "?";
}

namespace {

std::string phaseText(const Phase &Ph, std::size_t I) {
  std::string N = std::to_string(I);
  std::string L = std::to_string(Ph.Literal);
  switch (Ph.Kind) {
  case PhaseKind::FanOut:
    return "if id == 0 then\n  x" + N + " = " + L + ";\n  for f" + N +
           " = 1 to np - 1 do\n    send x" + N + " -> f" + N +
           ";\n  end\nelse\n  recv y" + N + " <- 0;\nend\n";
  case PhaseKind::Gather:
    return "if id == 0 then\n  for g" + N + " = 1 to np - 1 do\n    recv y" +
           N + " <- g" + N + ";\n  end\nelse\n  x" + N + " = id * " + L +
           ";\n  send x" + N + " -> 0;\nend\n";
  case PhaseKind::Transpose:
    return "x" + N + " = id + " + L + ";\nsend x" + N +
           " -> (id % nrows) * nrows + id / nrows;\nrecv y" + N +
           " <- (id % nrows) * nrows + id / nrows;\n";
  case PhaseKind::Shift:
    return "x" + N + " = id + " + L + ";\nif id == 0 then\n  send x" + N +
           " -> id + 1;\nelif id == np - 1 then\n  recv y" + N +
           " <- id - 1;\nelse\n  recv y" + N + " <- id - 1;\n  send x" + N +
           " -> id + 1;\nend\n";
  case PhaseKind::ShiftLeft:
    return "x" + N + " = id + " + L + ";\nif id == 0 then\n  recv y" + N +
           " <- id + 1;\nelif id == np - 1 then\n  send x" + N +
           " -> id - 1;\nelse\n  recv y" + N + " <- id + 1;\n  send x" + N +
           " -> id - 1;\nend\n";
  }
  return "";
}

std::int64_t literal(Rng &R) { return 1 + static_cast<std::int64_t>(R.below(97)); }

std::vector<Phase> phases(Rng &R, PhaseKind Kind, int Count) {
  std::vector<Phase> Out;
  for (int I = 0; I < Count; ++I)
    Out.push_back({Kind, literal(R)});
  return Out;
}

void append(std::vector<Phase> &To, std::vector<Phase> From) {
  To.insert(To.end(), From.begin(), From.end());
}

/// Appends A[0], B[0], A[1], B[1], ..., then what is left of the longer.
void interleave(std::vector<Phase> &To, const std::vector<Phase> &A,
                const std::vector<Phase> &B) {
  for (std::size_t I = 0; I < std::max(A.size(), B.size()); ++I) {
    if (I < A.size())
      To.push_back(A[I]);
    if (I < B.size())
      To.push_back(B[I]);
  }
}

} // namespace

void perfbench::render(GenProgram &P) {
  if (P.Fam == Family::Kernel)
    return;
  std::string S = "# perfbench " + std::string(familyName(P.Fam)) + " " +
                  P.Name + "\n";
  if (!P.FixedNp)
    S += "assume np == nrows * nrows;\n";
  for (std::size_t I = 0; I < P.Phases.size(); ++I)
    S += phaseText(P.Phases[I], I);
  P.Source = std::move(S);
}

GenProgram perfbench::symbolicProgram(Rng &R, const std::string &Name,
                                      int Transposes, int Fans, int Gathers) {
  GenProgram P;
  P.Name = Name;
  P.Fam = Family::Symbolic;
  // Fan-outs and gathers alternate after the transposes: the seed picks
  // the literals, not the order, so every seed's program costs the same.
  P.Phases = phases(R, PhaseKind::Transpose, Transposes);
  std::vector<Phase> F = phases(R, PhaseKind::FanOut, Fans);
  std::vector<Phase> G = phases(R, PhaseKind::Gather, Gathers);
  interleave(P.Phases, F, G);
  render(P);
  return P;
}

GenProgram perfbench::fixedProgram(Rng &R, const std::string &Name,
                                   std::int64_t Np, int Shifts, int Lefts,
                                   int Fans) {
  GenProgram P;
  P.Name = Name;
  P.Fam = Family::FixedNp;
  P.FixedNp = Np;
  // Shifts and shift-lefts alternate, then the fan-outs. The cost of a
  // fixed-np program depends on its phase order, so the seed only picks
  // the literals.
  interleave(P.Phases, phases(R, PhaseKind::Shift, Shifts),
             phases(R, PhaseKind::ShiftLeft, Lefts));
  append(P.Phases, phases(R, PhaseKind::FanOut, Fans));
  render(P);
  return P;
}

GenProgram perfbench::mixedProgram(Rng &R, const std::string &Name,
                                   int Variant, int Phases) {
  GenProgram P;
  P.Name = Name;
  P.Fam = Family::Mixed;
  // Root phases alternate fan-out and gather, ending on the one csdf
  // cannot hand over from: a gather before the transpose, a fan-out before
  // the shift. (A shift followed by another fan-out is decided.)
  PhaseKind Last = Variant == 0 ? PhaseKind::Gather : PhaseKind::FanOut;
  PhaseKind Other = Variant == 0 ? PhaseKind::FanOut : PhaseKind::Gather;
  for (int I = 0; I < Phases; ++I)
    P.Phases.push_back({(Phases - 1 - I) % 2 ? Other : Last, literal(R)});
  P.Phases.push_back(
      {Variant == 0 ? PhaseKind::Transpose : PhaseKind::Shift, literal(R)});
  render(P);
  return P;
}

GenProgram perfbench::editProgram(const GenProgram &P, Rng &R,
                                  std::int64_t FreshLiteral) {
  GenProgram E = P;
  std::size_t At = R.below(E.Phases.size());
  Phase &Ph = E.Phases[At];
  Ph.Literal = FreshLiteral;
  if (R.below(4) == 0) {
    switch (Ph.Kind) {
    case PhaseKind::FanOut:
      Ph.Kind = PhaseKind::Gather;
      break;
    case PhaseKind::Gather:
      Ph.Kind = PhaseKind::FanOut;
      break;
    case PhaseKind::Shift:
      Ph.Kind = PhaseKind::ShiftLeft;
      break;
    case PhaseKind::ShiftLeft:
      Ph.Kind = PhaseKind::Shift;
      break;
    case PhaseKind::Transpose:
      break;
    }
  }
  render(E);
  return E;
}

bool perfbench::validate(const GenProgram &P,
                         std::vector<csdf::RunResult> &Runs,
                         std::string &Error) {
  csdf::ParseResult Parsed = csdf::parseProgram(P.Source);
  if (!Parsed.succeeded()) {
    Error = P.Name + ": " + Parsed.Diagnostics.front().str();
    return false;
  }
  csdf::Cfg Graph = csdf::buildCfg(Parsed.Prog);
  Runs.clear();
  std::vector<csdf::RunOptions> Configs(P.FixedNp ? 1 : 2);
  if (P.FixedNp) {
    Configs[0].NumProcs = static_cast<int>(P.FixedNp);
  } else {
    Configs[0].NumProcs = 4;
    Configs[0].Params = {{"nrows", 2}};
    Configs[1].NumProcs = 9;
    Configs[1].Params = {{"nrows", 3}};
  }
  for (const csdf::RunOptions &Opts : Configs) {
    csdf::RunResult Run = csdf::runProgram(Graph, Opts);
    if (!Run.finished() || !Run.Leaks.empty() || !Run.RequestLeaks.empty()) {
      Error = P.Name + " at np " + std::to_string(Opts.NumProcs) + ": " +
              csdf::runStatusName(Run.Status) + " " + Run.Error +
              (Run.Leaks.empty() ? "" : " (leaked message)");
      return false;
    }
    Runs.push_back(std::move(Run));
  }
  return true;
}
