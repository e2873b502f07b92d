#include "obs/trace.hpp"

#include "snapshot/archive.hpp"

namespace sheriff::obs {

const char* to_string(EventType type) noexcept {
  switch (type) {
    case EventType::kAlertRaised: return "AlertRaised";
    case EventType::kRerouteChosen: return "RerouteChosen";
    case EventType::kMigrationPlanned: return "MigrationPlanned";
    case EventType::kMigrationCompleted: return "MigrationCompleted";
    case EventType::kProtocolMsgSent: return "ProtocolMsgSent";
    case EventType::kProtocolMsgDropped: return "ProtocolMsgDropped";
    case EventType::kProtocolMsgRetried: return "ProtocolMsgRetried";
    case EventType::kFaultInjected: return "FaultInjected";
    case EventType::kShimTakeover: return "ShimTakeover";
    case EventType::kInvariantViolation: return "InvariantViolation";
  }
  return "Unknown";
}

void EventTrace::checkpoint(snapshot::Archive& ar) {
  ar.expect_u64(rings_.size(), "corrupt trace section");
  for (Ring& ring : rings_) {
    std::uint64_t slot_count = ring.slots.size();
    ar.count(slot_count, 33);
    ar.check(slot_count <= capacity_, "checkpoint trace ring exceeds this build's capacity");
    ring.slots.resize(slot_count);
    for (TraceRecord& record : ring.slots) {
      ar.u64(record.seq);
      ar.u32(record.round);
      ar.u32(record.shim);
      ar.u8(record.type);
      ar.check(static_cast<std::size_t>(record.type) < kEventTypeCount,
               "corrupt trace record type");
      ar.u32(record.a);
      ar.u32(record.b);
      ar.f64(record.value);
    }
    // append() overwrites slots[head] once the ring is full.
    ar.u64(ring.head);
    ar.check(ring.head == 0 || ring.head < ring.slots.size(), "corrupt trace ring head");
    ar.u64(ring.emitted);
    ar.u64(ring.dropped);
  }
  ar.u64(seq_);
  ar.u32(round_);
}

}  // namespace sheriff::obs
