// Ablation A1: arrangement quality. Compares the arrangement strategies
// (lexicographic/none, greedy nearest-neighbor, greedy + 2-opt, exact
// Held-Karp, revolving-door construction) on the decoder cost functions,
// and empirically re-verifies Propositions 4-5 against random
// arrangements.
#include <iostream>

#include "bench_util.h"
#include "codes/arranged_hot_code.h"
#include "codes/arrangement.h"
#include "codes/factory.h"
#include "codes/gray_code.h"
#include "codes/hot_code.h"
#include "codes/tree_code.h"
#include "decoder/optimality.h"
#include "device/tech_params.h"
#include "util/cli.h"

int main(int argc, char** argv) {
  using namespace nwdec;

  cli_parser cli("ablation_arrangement",
                 "A1 -- arrangement strategies vs decoder costs");
  cli.add_int("samples", 2000, "random arrangements sampled per space");
  if (const auto status = cli.parse_main(argc, argv)) return *status;

  const device::technology tech = device::paper_technology();
  bench::banner("Ablation A1", "arrangement strategy quality");

  // --- binary hot code C(6,3): strategies vs transition count -----------
  {
    const std::vector<codes::code_word> words = codes::hot_code_words(2, 3);
    const std::size_t n = words.size();

    const std::size_t lex = codes::total_transitions(words, false);
    const codes::arrangement_result greedy =
        codes::greedy_arrangement(words);
    const codes::arrangement_result two_opt =
        codes::two_opt_improve(greedy.sequence, false);
    const std::vector<codes::code_word> door =
        codes::arranged_hot_code_words(2, 3);
    const std::size_t door_cost = codes::total_transitions(door, false);

    text_table table({"strategy", "total transitions", "per step"});
    table.add_row({"lexicographic", format_count(lex),
                   format_fixed(static_cast<double>(lex) /
                                    static_cast<double>(n - 1), 2)});
    table.add_row({"greedy", format_count(greedy.transitions),
                   format_fixed(static_cast<double>(greedy.transitions) /
                                    static_cast<double>(n - 1), 2)});
    table.add_row({"greedy+2opt", format_count(two_opt.transitions),
                   format_fixed(static_cast<double>(two_opt.transitions) /
                                    static_cast<double>(n - 1), 2)});
    table.add_row({"revolving door", format_count(door_cost),
                   format_fixed(static_cast<double>(door_cost) /
                                    static_cast<double>(n - 1), 2)});
    table.print(std::cout, "binary hot code (M=6, k=3), 20 words:");
    std::cout << "minimum possible per step for hot codes: 2 "
              << "(revolving door achieves it everywhere)\n\n";
  }

  // --- exact reference on a small space ---------------------------------
  {
    const std::vector<codes::code_word> words = codes::tree_code_words(2, 4);
    const codes::arrangement_result exact =
        codes::exact_min_arrangement(words, false);
    codes::arrangement_result heur = codes::greedy_arrangement(words);
    heur = codes::two_opt_improve(std::move(heur.sequence), false);
    std::cout << "binary tree space (16 words): exact optimum "
              << exact.transitions << " transitions (a Gray path), "
              << "greedy+2opt " << heur.transitions << "\n\n";
  }

  // --- Propositions 4-5 against random arrangements ---------------------
  {
    rng random(7);
    const std::size_t samples =
        static_cast<std::size_t>(cli.get_int("samples"));
    const auto base = codes::tree_code_words(2, 3);
    const auto gray = codes::reflect_words(codes::gray_code_words(2, 3));
    const decoder::optimality_report report = decoder::compare_sampled(
        base, true, gray, 8, tech, samples, random);

    std::cout << "Propositions 4-5, binary 3-digit space, " << samples
              << " random arrangements:\n"
              << "  Gray Phi = " << report.reference.fabrication_complexity
              << " vs best sampled "
              << report.best_other.fabrication_complexity << "\n"
              << "  Gray ||Sigma||_1 = "
              << report.reference.variability_sigma_units << " sigma^2"
              << " vs best sampled "
              << report.best_other.variability_sigma_units << " sigma^2\n"
              << "  Gray minimizes Phi:   "
              << (report.reference_minimizes_phi ? "yes" : "NO") << "\n"
              << "  Gray minimizes Sigma: "
              << (report.reference_minimizes_sigma ? "yes" : "NO") << "\n";
  }
  return 0;
}
