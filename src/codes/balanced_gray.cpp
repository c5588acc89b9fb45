#include "codes/balanced_gray.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <numeric>
#include <utility>

#include "codes/gray_code.h"
#include "util/error.h"

namespace nwdec::codes {

namespace {

// The search works on integer node ids: the mixed-radix encoding of the
// word digits, most significant digit first.
struct hamming_graph {
  unsigned radix;
  std::size_t digits;
  std::size_t node_count;
  // pow_[pos] = radix^(digits-1-pos): weight of digit `pos` in the id.
  std::vector<std::size_t> pow_;

  hamming_graph(unsigned n, std::size_t m) : radix(n), digits(m) {
    pow_.resize(m);
    std::size_t w = 1;
    for (std::size_t pos = m; pos-- > 0;) {
      pow_[pos] = w;
      w *= n;
    }
    node_count = w;
  }

  unsigned digit_of(std::size_t id, std::size_t pos) const {
    return static_cast<unsigned>(id / pow_[pos] % radix);
  }

  std::size_t with_digit(std::size_t id, std::size_t pos,
                         unsigned value) const {
    const unsigned current = digit_of(id, pos);
    return id + (static_cast<std::size_t>(value) - current) * pow_[pos];
  }

  code_word to_word(std::size_t id) const {
    std::vector<digit> out(digits);
    for (std::size_t pos = 0; pos < digits; ++pos) {
      out[pos] = static_cast<digit>(digit_of(id, pos));
    }
    return code_word(radix, std::move(out));
  }
};

struct search_state {
  const hamming_graph& graph;
  std::vector<std::size_t> budget;       // remaining transitions per digit
  std::vector<bool> visited;
  std::vector<std::size_t> path;         // node ids
  std::uint64_t expansions = 0;
  std::uint64_t expansion_limit;
  // Move-ordering heuristic: Warnsdorff-first suits odd radices, whose
  // tight budgets otherwise strand nodes; budget-first keeps binary
  // searches on the perfectly balanced track.
  bool degree_first;
  // Deterministic tie-break salt; different salts explore different
  // corners of the search tree (random-restart flavor without an RNG).
  std::uint64_t salt;

  search_state(const hamming_graph& g, std::vector<std::size_t> targets,
               std::uint64_t limit, bool degree_first_ordering,
               std::uint64_t tie_salt)
      : graph(g),
        budget(std::move(targets)),
        visited(g.node_count, false),
        expansion_limit(limit),
        degree_first(degree_first_ordering),
        salt(tie_salt) {
    path.reserve(g.node_count);
  }

  std::uint64_t tie_key(std::size_t node) const {
    // splitmix64-style scramble of (node, salt).
    std::uint64_t x = (static_cast<std::uint64_t>(node) + 1) * 0x9e3779b97f4a7c15ULL + salt;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
  }

  // Count of unvisited neighbors reachable under the current budget; used
  // as a Warnsdorff-style tie breaker (visit tight nodes first).
  std::size_t open_degree(std::size_t id) const {
    std::size_t deg = 0;
    for (std::size_t pos = 0; pos < graph.digits; ++pos) {
      if (budget[pos] == 0) continue;
      for (unsigned v = 0; v < graph.radix; ++v) {
        if (v == graph.digit_of(id, pos)) continue;
        if (!visited[graph.with_digit(id, pos, v)]) ++deg;
      }
    }
    return deg;
  }

  bool closes_cycle(std::size_t last) const {
    const std::size_t start = path.front();
    std::size_t differing = 0;
    std::size_t diff_pos = 0;
    for (std::size_t pos = 0; pos < graph.digits; ++pos) {
      if (graph.digit_of(last, pos) != graph.digit_of(start, pos)) {
        ++differing;
        diff_pos = pos;
      }
    }
    return differing == 1 && budget[diff_pos] >= 1;
  }

  bool extend(std::size_t current) {
    if (++expansions > expansion_limit) return false;
    if (path.size() == graph.node_count) return closes_cycle(current);

    struct move {
      std::size_t pos;
      std::size_t next;
      std::size_t remaining;
      std::size_t degree;
    };
    std::vector<move> moves;
    for (std::size_t pos = 0; pos < graph.digits; ++pos) {
      if (budget[pos] == 0) continue;
      for (unsigned v = 0; v < graph.radix; ++v) {
        if (v == graph.digit_of(current, pos)) continue;
        const std::size_t next = graph.with_digit(current, pos, v);
        if (visited[next]) continue;
        moves.push_back({pos, next, budget[pos], 0});
      }
    }
    for (move& m : moves) m.degree = open_degree(m.next);
    std::sort(moves.begin(), moves.end(),
              [this](const move& a, const move& b) {
                if (degree_first) {
                  if (a.degree != b.degree) return a.degree < b.degree;
                  if (a.remaining != b.remaining)
                    return a.remaining > b.remaining;
                } else {
                  if (a.remaining != b.remaining)
                    return a.remaining > b.remaining;
                  if (a.degree != b.degree) return a.degree < b.degree;
                }
                return tie_key(a.next) < tie_key(b.next);
              });

    for (const move& m : moves) {
      --budget[m.pos];
      visited[m.next] = true;
      path.push_back(m.next);
      if (extend(m.next)) return true;
      path.pop_back();
      visited[m.next] = false;
      ++budget[m.pos];
    }
    return false;
  }
};

// Every space within the 4096-word cap that the search below cannot
// balance, as (radix, free_length): found by running the search once on
// each of the 354 spaces in the cap (it is deterministic, so the table is
// exact). Each failure takes 17-118 s of search, so these spaces are
// refused up front instead.
constexpr std::pair<unsigned, std::size_t> kUnbalanceable[] = {
    {2, 7},   {2, 8},   {2, 9},   {2, 10},  {2, 11},  {2, 12},  {3, 5},
    {3, 6},   {3, 7},   {4, 5},   {4, 6},   {5, 4},   {5, 5},   {6, 4},
    {7, 4},   {8, 4},   {11, 3},  {12, 3},  {13, 2},  {13, 3},  {14, 3},
    {16, 3},  {27, 2},  {28, 2},  {29, 2},  {30, 2},  {32, 2},  {36, 2},
    {37, 2},  {38, 2},  {39, 2},  {40, 2},  {41, 2},  {42, 2},  {43, 2},
    {44, 2},  {47, 2},  {48, 2},  {50, 2},  {51, 2},  {52, 2},  {53, 2},
    {56, 2},  {58, 2},  {59, 2},  {60, 2},  {61, 2},  {63, 2},  {64, 2}};

}  // namespace

std::vector<std::size_t> balanced_transition_targets(
    unsigned radix, std::size_t free_length) {
  NWDEC_EXPECTS(radix >= 2, "balanced gray radix must be at least 2");
  NWDEC_EXPECTS(free_length >= 1, "balanced gray needs at least one digit");
  std::size_t total = 1;
  for (std::size_t i = 0; i < free_length; ++i) total *= radix;

  const std::size_t m = free_length;
  std::vector<std::size_t> targets(m, 0);
  if (radix == 2) {
    // Binary cyclic Gray codes toggle each bit an even number of times, so
    // distribute `total` over m digits in even quanta.
    const std::size_t pairs = total / 2;
    const std::size_t base = pairs / m;
    std::size_t extra = pairs % m;
    for (std::size_t pos = 0; pos < m; ++pos) {
      targets[pos] = 2 * (base + (pos < extra ? 1 : 0));
    }
  } else {
    const std::size_t base = total / m;
    std::size_t extra = total % m;
    for (std::size_t pos = 0; pos < m; ++pos) {
      targets[pos] = base + (pos < extra ? 1 : 0);
    }
  }
  NWDEC_ENSURES(std::accumulate(targets.begin(), targets.end(),
                                std::size_t{0}) == total,
                "transition targets must sum to the cycle length");
  return targets;
}

std::vector<code_word> balanced_gray_code_words(unsigned radix,
                                                std::size_t free_length) {
  const hamming_graph graph(radix, free_length);
  NWDEC_EXPECTS(graph.node_count <= 4096,
                "balanced gray search limited to 4096 words");

  const std::vector<std::size_t> ideal =
      balanced_transition_targets(radix, free_length);

  const bool balanceable =
      std::find(std::begin(kUnbalanceable), std::end(kUnbalanceable),
                std::pair{radix, free_length}) == std::end(kUnbalanceable);
  // Try the ideal (tight) budget first with a generous search, then retry
  // with uniformly slackened budgets and a fail-fast limit: a little slack
  // on every digit turns the exponential tail of the DFS into seconds
  // while keeping the per-digit counts within a small spread.
  const std::size_t relax_quantum = radix == 2 ? 2 : 1;
  for (std::size_t relax = 0; balanceable && relax <= 6; ++relax) {
    for (std::uint64_t restart = 0; restart < 4; ++restart) {
      for (const bool degree_first : {false, true}) {
        std::vector<std::size_t> targets = ideal;
        for (std::size_t pos = 0; pos < free_length; ++pos) {
          targets[pos] += relax * relax_quantum;
        }
        search_state state(graph, std::move(targets), /*limit=*/1'500'000,
                           degree_first, restart * 0x2545f4914f6cdd1dULL);
        state.visited[0] = true;
        state.path.push_back(0);
        if (state.extend(0)) {
          std::vector<code_word> out;
          out.reserve(state.path.size());
          for (const std::size_t id : state.path) {
            out.push_back(graph.to_word(id));
          }
          NWDEC_ENSURES(is_gray_sequence(out, 1, /*cyclic=*/true),
                        "balanced gray search must return a cyclic Gray code");
          return out;
        }
      }
    }
  }
  // A space in kUnbalanceable (binary free_length >= 7, ternary and
  // quaternary >= 5, radix 5-8 at 4, and a few larger radices at 2 or 3
  // free digits): refuse rather than hand back an unbalanced code.
  throw invalid_argument_error(
      "balanced Gray search could not balance this code space (" +
      std::to_string(graph.node_count) +
      " words); use the plain Gray code for spaces of this size");
}

namespace {

bool extend_prefix(const hamming_graph& graph, std::vector<bool>& visited,
                   std::vector<std::size_t>& budget,
                   std::vector<std::size_t>& path, std::size_t count,
                   std::uint64_t& expansions) {
  if (path.size() == count) return true;
  if (++expansions > 5'000'000) return false;
  const std::size_t current = path.back();
  for (std::size_t pos = 0; pos < graph.digits; ++pos) {
    if (budget[pos] == 0) continue;
    for (unsigned v = 0; v < graph.radix; ++v) {
      if (v == graph.digit_of(current, pos)) continue;
      const std::size_t next = graph.with_digit(current, pos, v);
      if (visited[next]) continue;
      visited[next] = true;
      --budget[pos];
      path.push_back(next);
      if (extend_prefix(graph, visited, budget, path, count, expansions)) {
        return true;
      }
      path.pop_back();
      ++budget[pos];
      visited[next] = false;
    }
  }
  return false;
}

}  // namespace

std::optional<std::vector<code_word>> constrained_gray_prefix(
    unsigned radix, std::size_t free_length, std::size_t count,
    std::size_t max_changes) {
  NWDEC_EXPECTS(count >= 1, "need at least one word");
  const hamming_graph graph(radix, free_length);
  NWDEC_EXPECTS(count <= graph.node_count,
                "prefix longer than the code space");
  // Each step changes exactly one digit, so the budgets bound the length.
  if (count - 1 > max_changes * free_length) return std::nullopt;

  std::vector<bool> visited(graph.node_count, false);
  std::vector<std::size_t> budget(free_length, max_changes);
  std::vector<std::size_t> path{0};
  visited[0] = true;
  std::uint64_t expansions = 0;
  if (!extend_prefix(graph, visited, budget, path, count, expansions)) {
    return std::nullopt;
  }
  std::vector<code_word> out;
  out.reserve(path.size());
  for (const std::size_t id : path) out.push_back(graph.to_word(id));
  NWDEC_ENSURES(is_gray_sequence(out, 1, /*cyclic=*/false),
                "constrained prefix must be a Gray sequence");
  return out;
}

}  // namespace nwdec::codes
