// CommandStream — the March sequencer, extracted into a pull-based
// generator.
//
// Historically three components re-derived the paper's sequencing rules
// independently: core::TestSession's triple-nested run loop, the
// BistController FSM, and ad-hoc loops in benches.  The stream is now the
// single owner of those decisions:
//
//   * walking (march element -> address-order step -> operation), with
//     delay ("Del") elements surfaced as idle blocks;
//   * the Fig. 7 row-transition restore: issued on the LAST operation of
//     the last address of a row (or before a pause, so bit-lines never sit
//     discharged through an idle window) when the low-power schedule is
//     active;
//   * the per-cycle scan direction, so backends pre-charge the correct
//     follower column for descending March elements.
//
// Backends (cycle-accurate array, closed-form analytic model, future
// batched/SIMD implementations) consume the stream; none of them re-derive
// scheduling.  The stream owns a copy of the March test but only borrows
// the address order: the caller (TestSession, BistController, ...) must
// keep the order alive for the stream's lifetime.
#pragma once

#include <cstdint>
#include <optional>

#include "march/address_order.h"
#include "march/test.h"
#include "power/trace.h"
#include "sram/background.h"
#include "sram/command.h"

namespace sramlp::engine {

/// One unit of work pulled from the stream: either a single clock cycle or
/// an idle block (a March delay element).
struct StreamStep {
  enum class Kind { kCycle, kIdle };
  Kind kind = Kind::kCycle;
  sram::CycleCommand command;     ///< valid when kind == kCycle
  std::uint64_t idle_cycles = 0;  ///< valid when kind == kIdle
  /// Position inside the March test (for detection reporting).
  std::size_t element = 0;
  std::size_t op = 0;
};

/// A whole-row batch of upcoming cycle steps: `group_count` consecutive
/// addresses of one word line inside one March element, each executing the
/// element's full operation list, with the stream's restore decision for
/// the run's final operation pre-resolved.  Runs exist so backends can
/// execute a row in one tight loop (sram::SramArray::execute_run) without
/// re-deriving any sequencing policy — the stream remains the single owner
/// of the restore and scan rules.
struct StreamRun {
  std::size_t element = 0;
  std::size_t row = 0;
  std::size_t first_group = 0;
  std::size_t group_count = 0;
  bool descending = false;
  sram::Scan scan = sram::Scan::kAscending;
  bool restore_last = false;  ///< Fig. 7 restore on the run's last op
};

/// Scheduling knobs resolved by the caller before the stream starts.
struct StreamOptions {
  /// Apply the low-power schedule (restore cycles at row hand-overs).
  /// The caller asserts the address order is compatible (word-line-after-
  /// word-line); TestSession's §4 fallback clears this flag otherwise.
  bool low_power = false;
  /// Issue the one-cycle functional restore at row transitions (Fig. 7).
  bool row_transition_restore = true;
  /// Run the complemented test (every operation's data bit flipped).
  bool invert_background = false;
  /// Data background carried verbatim on every command.
  sram::DataBackground background;
  /// Opt-in time-resolved power accounting: when set, trace-capable
  /// backends accumulate a power::PowerTrace over the run — element
  /// boundaries come from the stream's element indices — and attach its
  /// TraceSummary to the ExecutionResult.  Run totals are unaffected.
  std::optional<power::TraceConfig> trace;
  /// Optional per-event export sink (borrowed; e.g. a
  /// power::WaveformWriter).  Trace-capable backends subscribe it to the
  /// meter for the run — alongside the trace when both are requested.  A
  /// sink that needs the raw event stream receives every event as it
  /// happens, so expect waveform runs to be slower than traced ones.
  power::MeterSink* waveform_sink = nullptr;
};

class CommandStream {
 public:
  /// @param order borrowed; must outlive the stream and match the test's
  ///   target geometry.
  CommandStream(const march::MarchTest& test, const march::AddressOrder& order,
                const StreamOptions& options);

  const march::MarchTest& test() const { return test_; }
  const march::AddressOrder& order() const { return *order_; }
  const StreamOptions& options() const { return options_; }

  /// Clock cycles the whole stream spans (operations + idle blocks).
  std::uint64_t total_cycles() const {
    return test_.cycle_count(order_->size());
  }

  bool done() const { return done_; }

  /// The step the next call to next() will return; nullptr once done.
  const StreamStep* peek() const;

  /// Pull one step; std::nullopt once the test is exhausted.
  std::optional<StreamStep> next();

  /// Describe the whole-row run starting at the cursor, when one exists:
  /// the cursor must sit on the first operation of an address, the order
  /// must be word-line-after-word-line (runs are row-contiguous by
  /// construction there), and the current element must not be a pause.
  /// Returns false otherwise; the per-step API always remains valid.
  bool peek_run(StreamRun* run) const;

  /// Advance the cursor past a run obtained from peek_run() (equivalent
  /// to pop()-ing each of its steps).
  void skip_run(const StreamRun& run);

  /// Discard the current step without copying it (peek()/pop() is the
  /// copy-free consumption idiom for per-cycle hot loops).
  void pop() {
    if (!done_) advance();
  }

  /// Rewind to the first step (cheap; no allocation).
  void reset();

  /// Mark the stream exhausted without enumerating the remaining steps
  /// (closed-form backends account for the whole run at once).
  void skip_to_end() {
    done_ = true;
    materialized_ = false;
  }

 private:
  void materialize() const;
  void advance();
  /// The Fig. 7 restore-eligibility of the last operation at address-step
  /// @p step of @p element_index: true when the next address in test
  /// order sits on a different row than @p row, or the next element is a
  /// pause (bit-lines must not sit discharged through an idle window).
  /// Single owner of the rule, shared by materialize() and peek_run().
  bool restore_eligible_after(std::size_t element_index, std::size_t step,
                              std::size_t row) const;

  march::MarchTest test_;  ///< owned (already complemented when requested)
  const march::AddressOrder* order_;
  StreamOptions options_;
  bool wlawl_ = false;  ///< order is word-line-after-word-line (cached)

  // Cursor: element -> address step -> operation.
  std::size_t element_ = 0;
  std::size_t step_ = 0;
  std::size_t op_ = 0;
  bool done_ = false;

  // Lazily materialized view of the current cursor position (cache only;
  // logically const).  The address-dependent fields of current_ (row,
  // column, scan, background, restore eligibility) are recomputed only
  // when the cursor moves to a new (element, step) pair; per-operation
  // fields refresh every materialize.
  mutable StreamStep current_;
  mutable bool materialized_ = false;
  mutable std::size_t cached_element_ = static_cast<std::size_t>(-1);
  mutable std::size_t cached_step_ = static_cast<std::size_t>(-1);
  mutable bool cached_restore_eligible_ = false;
};

}  // namespace sramlp::engine
