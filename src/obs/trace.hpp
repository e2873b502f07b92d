#pragma once
// Structured event trace: fixed-capacity per-shim ring buffers of typed
// records. Every management decision the simulator takes — an alert
// firing, a flow rerouted, a migration planned/committed, a protocol
// message lost, a fault event, a shim takeover, an invariant violation —
// becomes one TraceRecord stamped with the round, the owning shim, and a
// globally monotonic sequence number.
//
// Each shim id owns one ring, and the engine emits from one thread, so
// `seq` follows the round's phase order and a merged snapshot is ordered
// totally by it. The counter is a relaxed atomic: emits into different
// shims' rings from different threads stay safe without a lock, though
// their relative `seq` order then follows the schedule.
//
// Rings are bounded: when a shim's ring is full the oldest record is
// overwritten and `dropped()` counts it. Tracing therefore has a hard
// memory ceiling no matter how long the run is.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <vector>

namespace sheriff::obs {

enum class EventType : std::uint8_t {
  kAlertRaised,        ///< a = alerting node, value = alert magnitude
  kRerouteChosen,      ///< a = hot switch routed around, value = flows moved
  kMigrationPlanned,   ///< a = vm, b = destination host, value = Eq. (1) cost
  kMigrationCompleted, ///< a = vm, b = destination host, value = Eq. (1) cost
  kProtocolMsgSent,    ///< a = vm, b = destination host (REQUEST or ACK)
  kProtocolMsgDropped, ///< a = vm the lost REQUEST/ACK concerned
  kProtocolMsgRetried, ///< a = vm re-proposed after a loss
  kFaultInjected,      ///< a = FaultKind as int, b = target id
  kShimTakeover,       ///< a = rack adopted, b = adopting rack (invalid = unmanaged)
  kInvariantViolation, ///< a = check id, value = offending magnitude
};

inline constexpr std::size_t kEventTypeCount = 10;

/// Stable name used by the JSONL exporter and the summarizer.
const char* to_string(EventType type) noexcept;

struct TraceRecord {
  std::uint64_t seq = 0;    ///< global monotonic emission order
  std::uint32_t round = 0;  ///< management round the event happened in
  std::uint32_t shim = 0;   ///< owning rack, or EventTrace::kEngine
  EventType type = EventType::kAlertRaised;
  std::uint32_t a = 0;      ///< primary payload id (see EventType docs)
  std::uint32_t b = 0;      ///< secondary payload id
  double value = 0.0;       ///< payload magnitude (cost, load, count, ...)

  friend bool operator==(const TraceRecord&, const TraceRecord&) = default;
};

class EventTrace {
 public:
  /// Pseudo-shim id for events raised by the engine itself rather than a
  /// rack's shim (fault application, takeover recomputation, audits).
  static constexpr std::uint32_t kEngine = static_cast<std::uint32_t>(-1);

  explicit EventTrace(std::size_t shim_count, std::size_t capacity_per_shim = 4096)
      : capacity_(capacity_per_shim > 0 ? capacity_per_shim : 1),
        rings_(shim_count + 1) {}

  /// Stamped onto subsequent records; call at the top of each round, while
  /// no emitter is running.
  void set_round(std::uint32_t round) noexcept { round_ = round; }
  [[nodiscard]] std::uint32_t round() const noexcept { return round_; }

  /// Appends one record to `shim`'s ring (kEngine for engine-level events).
  /// Safe to call concurrently for *different* shims.
  void emit(std::uint32_t shim, EventType type, std::uint32_t a = 0, std::uint32_t b = 0,
            double value = 0.0) {
    Ring& ring = rings_[shim == kEngine ? rings_.size() - 1 : shim];
    TraceRecord record;
    record.round = round_;
    record.shim = shim;
    record.type = type;
    record.a = a;
    record.b = b;
    record.value = value;
    record.seq = seq_.fetch_add(1, std::memory_order_relaxed);
    append(ring, record);
  }

  [[nodiscard]] std::size_t capacity_per_shim() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t shim_count() const noexcept { return rings_.size() - 1; }

  /// Records ever emitted (including those since overwritten).
  [[nodiscard]] std::uint64_t total_emitted() const {
    std::uint64_t n = 0;
    for (const Ring& r : rings_) n += r.emitted;
    return n;
  }
  /// Records lost to ring overwrites.
  [[nodiscard]] std::uint64_t total_dropped() const {
    std::uint64_t n = 0;
    for (const Ring& r : rings_) n += r.dropped;
    return n;
  }

  /// All retained records merged across rings, sorted by sequence number.
  /// Call from serial code only (between rounds or after a run).
  [[nodiscard]] std::vector<TraceRecord> snapshot() const {
    std::vector<TraceRecord> out;
    for (const Ring& r : rings_) out.insert(out.end(), r.slots.begin(), r.slots.end());
    std::sort(out.begin(), out.end(),
              [](const TraceRecord& x, const TraceRecord& y) { return x.seq < y.seq; });
    return out;
  }

  void clear() {
    for (Ring& r : rings_) {
      r.slots.clear();
      r.head = 0;
      r.emitted = 0;
      r.dropped = 0;
    }
  }

  // --- checkpoint state access ----------------------------------------------
  // Raw per-ring views + the sequence counter, so the engine's checkpoint
  // code can serialize the trace byte-exactly (ring contents, overwrite
  // cursor, drop tallies, next seq) without this header depending on the
  // archive. Call from serial code only.

  /// Total rings, including the trailing engine ring.
  [[nodiscard]] std::size_t ring_count() const noexcept { return rings_.size(); }

  struct RingView {
    const std::vector<TraceRecord>& slots;
    std::size_t head;
    std::uint64_t emitted;
    std::uint64_t dropped;
  };
  [[nodiscard]] RingView ring_view(std::size_t index) const {
    const Ring& r = rings_[index];
    return {r.slots, r.head, r.emitted, r.dropped};
  }
  void restore_ring(std::size_t index, std::vector<TraceRecord> slots, std::size_t head,
                    std::uint64_t emitted, std::uint64_t dropped) {
    Ring& r = rings_[index];
    r.slots = std::move(slots);
    r.head = head;
    r.emitted = emitted;
    r.dropped = dropped;
  }

  /// The sequence number the next emit() will take.
  [[nodiscard]] std::uint64_t next_seq() const noexcept {
    return seq_.load(std::memory_order_relaxed);
  }
  void set_next_seq(std::uint64_t seq) noexcept { seq_.store(seq, std::memory_order_relaxed); }

 private:
  struct Ring {
    std::vector<TraceRecord> slots;  ///< grows to capacity_, then wraps at head
    std::size_t head = 0;            ///< next overwrite position once full
    std::uint64_t emitted = 0;
    std::uint64_t dropped = 0;
  };

  void append(Ring& ring, const TraceRecord& record) {
    if (ring.slots.size() < capacity_) {
      ring.slots.push_back(record);
    } else {
      ring.slots[ring.head] = record;  // overwrite the oldest
      ring.head = (ring.head + 1) % capacity_;
      ++ring.dropped;
    }
    ++ring.emitted;
  }

  std::size_t capacity_;
  std::vector<Ring> rings_;  ///< one per shim + one engine ring (last)
  std::atomic<std::uint64_t> seq_{0};
  std::uint32_t round_ = 0;
};

}  // namespace sheriff::obs
