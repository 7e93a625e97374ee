// Packet flight recorder: a bounded ring of sampled per-packet journeys
// (structured rmt::TraceEvent sequences plus the packet's final fate and
// attribution). While unfrozen the ring overwrites its oldest journey;
// when the health monitor trips an alert it freezes the recorder, so the
// last N journeys leading up to the anomaly survive for post-mortem
// inspection and can be dumped as JSONL.
#pragma once

#include <cstdint>
#include <deque>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.h"
#include "rmt/phv.h"
#include "rmt/pipeline.h"

namespace p4runpro::obs {

/// One recorded packet journey: everything needed to replay "which
/// program's entries did this packet touch, and what did they do to it".
struct PacketJourney {
  std::uint64_t seq = 0;       ///< pipeline arrival index of the packet
  double t_ms = 0.0;           ///< virtual time at completion
  ProgramId program = 0;       ///< claiming program (0 = unclaimed)
  std::string program_name;    ///< name at record time ("" when unknown)
  rmt::PacketFate fate = rmt::PacketFate::Dropped;
  Port ingress_port = 0;
  Port egress_port = 0;
  int recirc_passes = 0;
  std::uint32_t table_hits = 0;
  std::uint32_t salu_execs = 0;
  /// Causal trace id + generation of the table state this packet ran
  /// against (see rmt::Pipeline::note_table_update; 0 = untraced tables).
  std::uint64_t table_trace = 0;
  std::uint64_t table_generation = 0;
  std::vector<rmt::TraceEvent> events;  ///< per-operation execution trace
};

/// Render a PacketFate as the lowercase token used in the JSONL dump.
[[nodiscard]] std::string_view fate_name(rmt::PacketFate fate) noexcept;

class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = 128) : capacity_(capacity) {}

  /// Ring size: how many journeys survive a freeze.
  void set_capacity(std::size_t capacity);
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Record every Nth injected packet (1 = every packet); 0 disables
  /// sampling entirely (the default — journey capture forces per-packet
  /// tracing, which is too expensive to leave on unconditionally).
  void set_sample_every(std::uint32_t n) noexcept { sample_every_ = n; }
  [[nodiscard]] std::uint32_t sample_every() const noexcept { return sample_every_; }

  /// Pre-parse sampling decision for the next packet. Counts every call;
  /// returns true when this packet's journey should be captured (sampling
  /// enabled, its turn in the 1-in-N rotation, and the ring not frozen).
  [[nodiscard]] bool want_sample() noexcept {
    const std::uint64_t n = seen_++;
    return sample_every_ != 0 && !frozen_ && n % sample_every_ == 0;
  }
  /// How many upcoming want_sample() calls will return false: the distance
  /// to the next turn in the rotation, or "never" (UINT64_MAX) while
  /// sampling is off or the ring is frozen.
  [[nodiscard]] std::uint64_t sample_gap() const noexcept {
    if (sample_every_ == 0 || frozen_) return UINT64_MAX;
    const std::uint64_t phase = seen_ % sample_every_;
    return phase == 0 ? 0 : sample_every_ - phase;
  }
  /// Count `n` packets that ran without a want_sample() call.
  void skip(std::uint64_t n) noexcept { seen_ += n; }

  /// Append a journey, evicting the oldest once the ring is full. Ignored
  /// while frozen.
  void record(PacketJourney journey);

  /// Stop recording and keep the current ring contents (alert post-mortem).
  /// Only the first freeze sticks; later ones are ignored so the dump
  /// reflects the *first* anomaly.
  void freeze(std::string reason, double t_ms);
  /// Resume recording after a freeze (the ring contents are kept).
  void thaw() noexcept { frozen_ = false; }

  [[nodiscard]] bool frozen() const noexcept { return frozen_; }
  [[nodiscard]] const std::string& freeze_reason() const noexcept { return freeze_reason_; }
  [[nodiscard]] double frozen_at_ms() const noexcept { return frozen_at_ms_; }

  [[nodiscard]] const std::deque<PacketJourney>& journeys() const noexcept {
    return journeys_;
  }
  /// Total journeys ever recorded (including evicted ones).
  [[nodiscard]] std::uint64_t recorded() const noexcept { return recorded_; }

  void clear();

 private:
  std::size_t capacity_;
  std::uint32_t sample_every_ = 0;
  std::uint64_t seen_ = 0;
  std::uint64_t recorded_ = 0;
  bool frozen_ = false;
  std::string freeze_reason_;
  double frozen_at_ms_ = 0.0;
  std::deque<PacketJourney> journeys_;
};

/// JSONL dump: one object per retained journey, oldest first, each with its
/// structured event list. A leading meta line records the freeze state.
/// Deterministic: identical recorder contents produce identical bytes.
void export_flight_jsonl(const FlightRecorder& recorder, std::ostream& out);

}  // namespace p4runpro::obs
