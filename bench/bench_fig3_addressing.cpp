// Experiment E3 — reproduces the paper's Fig. 3: the word-line-after-
// word-line access order, contrasted with the other DOF-1-legal orders the
// library provides (any of which functional mode accepts, but only the
// first of which enables the low-power test mode).
#include <cstdio>
#include <exception>

#include "march/address_order.h"
#include "util/table.h"

namespace {

using namespace sramlp;
using march::AddressOrder;

void print_order_grid(const AddressOrder& order) {
  // Visit-step number laid out on the array grid.
  const std::size_t rows = order.rows();
  const std::size_t cols = order.col_groups();
  std::vector<std::vector<std::size_t>> step(
      rows, std::vector<std::size_t>(cols, 0));
  for (std::size_t i = 0; i < order.size(); ++i) {
    const auto a = order.at(i, march::Direction::kUp);
    step[a.row][a.col] = i;
  }
  std::printf("%s (step number at each cell):\n",
              march::to_string(order.kind()).c_str());
  for (std::size_t r = 0; r < rows; ++r) {
    std::fputs("   ", stdout);
    for (std::size_t c = 0; c < cols; ++c)
      std::printf(" %3zu", step[r][c]);
    std::printf("   <- word line %zu\n", r);
  }
}

void run() {
  std::puts("== E3: Fig. 3 — access order 'word line after word line' ==\n");
  const std::size_t rows = 4;
  const std::size_t cols = 8;

  print_order_grid(AddressOrder::word_line_after_word_line(rows, cols));
  std::puts(
      "\nall m cells of word line 0 first, then word line 1, ... —\n"
      "consecutive operations always hit adjacent columns, so only the\n"
      "selected and the following column ever need pre-charge.\n");

  print_order_grid(AddressOrder::fast_row(rows, cols));
  std::puts("");
  print_order_grid(AddressOrder::pseudo_random(rows, cols, 2006));

  util::Table table({"order", "LP-mode capable", "DOF-1 legal"});
  for (const auto& order :
       {AddressOrder::word_line_after_word_line(rows, cols),
        AddressOrder::fast_row(rows, cols),
        AddressOrder::pseudo_random(rows, cols, 2006),
        AddressOrder::address_complement(rows, cols),
        AddressOrder::gray_code(rows, cols)}) {
    table.add_row({march::to_string(order.kind()),
                   order.is_word_line_after_word_line() ? "yes" : "no",
                   "yes"});
  }
  std::puts("");
  std::fputs(table.str("March DOF-1: any address permutation is a valid "
                       "'up' sequence").c_str(),
             stdout);
}

}  // namespace

int main() {
  try {
    run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_fig3_addressing failed: %s\n", e.what());
    return 1;
  }
  return 0;
}
