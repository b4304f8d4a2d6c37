//===----------------------------------------------------------------------===//
//
// Seeded workload generators for the MS2 benchmark.
//
// Every generated unit is rendered twice from one small program tree: once
// with macro invocations (what the engine sees) and once as the macro-free
// program a correct expansion must print (the oracle). The oracle form is
// written out by this file's own model of each macro's template and of the
// engine's documented gensym naming (`__msq_<prefix>_<n>`, numbered per
// unit in expansion order), so it never comes from the expander under test.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_GEN_H
#define PERFBENCH_GEN_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace pb {

/// SplitMix64: a tiny deterministic generator, identical on every
/// platform (std:: distributions are not).
class Rng {
public:
  explicit Rng(uint64_t Seed) : S(Seed * 0x9E3779B97F4A7C15ull + 1) {}
  uint64_t next() {
    uint64_t Z = (S += 0x9E3779B97F4A7C15ull);
    Z = (Z ^ (Z >> 30)) * 0xBF58476D1CE4E5B9ull;
    Z = (Z ^ (Z >> 27)) * 0x94D049BB133111EBull;
    return Z ^ (Z >> 31);
  }
  unsigned below(unsigned N) { return unsigned(next() % N); }
  bool chance(unsigned Percent) { return below(100) < Percent; }
  double unit() { return double(next() >> 11) * (1.0 / 9007199254740992.0); }

private:
  uint64_t S;
};

/// The library every workload loads on top of the standard library: the
/// paper's myenum deriver, dynamic_bind and throw/catch, an optional-clause
/// loop, a repetition macro, and `tally_up`, whose body constant \p K is
/// what the daemon workload's library reloads edit.
std::string benchLibrary(int K);
/// The unit name the library is loaded under.
inline const char *benchLibraryName() { return "perfbench_lib.c"; }

/// One generated translation unit, rendered for the engine and for the
/// oracle. The oracle text is macro-free; comparing its printed parse with
/// the engine's output checks the expansion.
struct GenUnit {
  std::string Name;
  std::string Base; ///< "" for C, "sexpr" for the S-expression base
  std::string Source;
  /// Macro-free form for each tally_up constant the unit may be expanded
  /// under (index = K - 1; units that never invoke tally_up repeat one).
  std::vector<std::string> Expected;
  size_t Lines = 0;
  /// The unit deliberately fails to expand (a min_of with a compound
  /// argument); Expected is empty.
  bool ExpectError = false;
  bool UsesTally = false;
};

/// Number of tally_up constants (library variants) oracle forms exist for.
constexpr int LibraryVariants = 2;

/// cold_frontend: a few large units of mostly plain C with sparse
/// standard-library invocations.
std::vector<GenUnit> genColdFrontend(uint64_t Seed, unsigned Units);
/// cold_macros: many small units dense with invocations of the paper's
/// macros, a share of them written in the S-expression base.
std::vector<GenUnit> genColdMacros(uint64_t Seed, unsigned Units);
/// daemon_mixed build traffic: small C units, about \p TallyPercent
/// percent of which may invoke tally_up (so a reload invalidates them); at
/// 100 every unit does.
std::vector<GenUnit> genDaemonUnits(uint64_t Seed, unsigned Units,
                                    const std::string &Prefix,
                                    unsigned TallyPercent);
/// daemon_mixed editor documents: \p Versions successive texts of one
/// document, every \p ErrorEvery-th of which fails to expand.
std::vector<GenUnit> genEditorVersions(uint64_t Seed, const std::string &Name,
                                       unsigned Versions, unsigned ErrorEvery);

/// Replaces every GenUnit::Expected entry with its printed parse (the
/// parser and printer only, no expansion), in place.
/// Returns false (with a message on stderr) if any oracle text failed to
/// parse.
bool resolveOracles(std::vector<GenUnit> &Units);

} // namespace pb

#endif // PERFBENCH_GEN_H
