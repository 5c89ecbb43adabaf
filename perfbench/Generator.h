//===- perfbench/Generator.h - Seeded MPL program generator ---------------===//
//
// Part of the csdf project, under the Apache License v2.0.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates the benchmark's MPL inputs from a seed. Programs are chains of
/// communication phases from two idiom families:
///
///   * symbolic: `assume np == nrows * nrows;`, transpose phases followed by
///     root fan-out and gather phases. Exercises widening, DBM closure and
///     the HSM prover.
///   * fixed-np: shift, shift-left and fan-out phases analyzed at a
///     concrete `--fixed-np` between 8 and 16. Exercises concrete process
///     sets and the matcher.
///
/// plus a mixed minority (a transpose after a root phase, or a shift under
/// the symbolic assume) that csdf gives up on. Each program records its
/// family, and validate() runs it through the interpreter at np values
/// that satisfy its assumes, proving it is a terminating, leak-free input.
///
//===----------------------------------------------------------------------===//

#ifndef CSDF_PERFBENCH_GENERATOR_H
#define CSDF_PERFBENCH_GENERATOR_H

#include "interp/Interpreter.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// splitmix64: the same seed gives the same stream on every platform
/// (std:: distributions do not).
class Rng {
public:
  explicit Rng(std::uint64_t Seed) : State(Seed) {}
  std::uint64_t next() {
    std::uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [0, N).
  std::uint64_t below(std::uint64_t N) { return next() % N; }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (std::size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[below(I)]);
  }

private:
  std::uint64_t State;
};

/// Visits 0..N-1 in seeded-shuffled rounds, without end. Two schedules
/// built from one seed yield the same sequence.
class RoundSchedule {
public:
  RoundSchedule(std::size_t N, std::uint64_t Seed) : N(N), R(Seed) {}
  /// True before the first request of a round.
  bool roundStart() const { return Pos == Order.size(); }
  std::size_t next() {
    if (Pos == Order.size()) {
      Order.resize(N);
      for (std::size_t I = 0; I < N; ++I)
        Order[I] = I;
      R.shuffle(Order);
      Pos = 0;
    }
    return Order[Pos++];
  }

private:
  std::size_t N;
  Rng R;
  std::vector<std::size_t> Order;
  std::size_t Pos = 0;
};

enum class Family { Symbolic, FixedNp, Mixed, Kernel };
const char *familyName(Family F);

enum class PhaseKind { FanOut, Gather, Transpose, Shift, ShiftLeft };

struct Phase {
  PhaseKind Kind = PhaseKind::FanOut;
  std::int64_t Literal = 0;
};

struct GenProgram {
  std::string Name;
  Family Fam = Family::Symbolic;
  /// Empty for kernels, whose Source is given verbatim.
  std::vector<Phase> Phases;
  /// Analysis `--fixed-np`; 0 = symbolic np under the nrows assume.
  std::int64_t FixedNp = 0;
  std::string Source;
};

/// Renders Phases into Source (kernels are left alone).
void render(GenProgram &P);

/// Symbolic family: \p Transposes transposes, then \p Fans fan-outs and
/// \p Gathers gathers, alternating.
GenProgram symbolicProgram(Rng &R, const std::string &Name, int Transposes,
                           int Fans, int Gathers);
/// Fixed-np family at \p Np: alternating shift and shift-left phases,
/// then fan-outs.
GenProgram fixedProgram(Rng &R, const std::string &Name, std::int64_t Np,
                        int Shifts, int Lefts, int Fans);
/// Mixed minority: \p Phases alternating root phases, then a transpose
/// (\p Variant 0, after a gather) or a shift under the symbolic assume
/// (variant 1, after a fan-out).
GenProgram mixedProgram(Rng &R, const std::string &Name, int Variant,
                        int Phases);
/// An edited revision of \p P: one literal changed to \p FreshLiteral
/// (never used before, so the source is new), or, one time in four, one
/// phase swapped for its sibling in the same family.
GenProgram editProgram(const GenProgram &P, Rng &R, std::int64_t FreshLiteral);

/// Parses \p P and runs it through the interpreter at np values that
/// satisfy its assumes (its fixed np; else 4 and 9 with nrows 2 and 3).
/// Returns false with \p Error set when the program does not parse,
/// deadlocks, fails, or leaks a message.
bool validate(const GenProgram &P, std::vector<csdf::RunResult> &Runs,
              std::string &Error);

} // namespace perfbench

#endif // CSDF_PERFBENCH_GENERATOR_H
