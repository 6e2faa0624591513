#include "march/scramble_order.h"

namespace sramlp::march {

AddressOrder wlawl_logical_order(const sram::AddressScramble& scramble) {
  const std::size_t rows = scramble.rows();
  const std::size_t cols = scramble.col_groups();
  if (scramble.is_identity())
    return AddressOrder::word_line_after_word_line(rows, cols);
  std::vector<Address> sequence;
  sequence.reserve(rows * cols);
  // Walk the PHYSICAL array row-major and record which logical address
  // reaches each physical location.
  for (std::size_t pr = 0; pr < rows; ++pr) {
    for (std::size_t pc = 0; pc < cols; ++pc) {
      const sram::PhysicalAddress logical = scramble.to_logical(pr, pc);
      sequence.push_back({logical.row, logical.col});
    }
  }
  return AddressOrder::custom(rows, cols, std::move(sequence));
}

}  // namespace sramlp::march
