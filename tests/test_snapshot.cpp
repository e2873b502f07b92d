// Checkpoint/restore subsystem tests (DESIGN.md §10): archive framing and
// corruption handling, RNG state round-trips, per-subsystem round trips, and
// the headline guarantee — run N == run N/2, save, load into a fresh
// engine, run N/2 — byte-identical metrics CSV, trace contents, and
// placement, pristine and faulted.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "core/metrics.hpp"
#include "core/predictor.hpp"
#include "fault/fault_plan.hpp"
#include "obs/trace.hpp"
#include "oracles/crc32.hpp"
#include "snapshot/archive.hpp"
#include "snapshot/checkpoint.hpp"
#include "timeseries/arima.hpp"
#include "timeseries/model_selection.hpp"
#include "timeseries/narnet.hpp"
#include "topology/bcube.hpp"
#include "topology/fat_tree.hpp"
#include "workload/csv_trace.hpp"
#include "workload/trace_generator.hpp"

namespace core = sheriff::core;
namespace wl = sheriff::wl;
namespace topo = sheriff::topo;
namespace fault = sheriff::fault;
namespace snap = sheriff::snapshot;
namespace obs = sheriff::obs;
namespace ts = sheriff::ts;
namespace net = sheriff::net;
namespace sc = sheriff::common;

// --- archive framing ---------------------------------------------------------

namespace {

/// The bytes of a saved archive with one section, `tag` at `version`,
/// whose payload is whatever `fill` writes.
template <typename Fill>
std::vector<std::uint8_t> one_section(const char* tag, std::uint32_t version, Fill fill) {
  snap::Archive out;
  out.begin_section(tag, version);
  fill(out);
  out.end_section();
  return out.buffer();
}

/// A forgery the CRC cannot catch: `bytes` with `width` little-endian
/// bytes at `offset` into section `tag`'s payload set to `value`, and
/// that section's CRC recomputed.
std::vector<std::uint8_t> resealed(std::vector<std::uint8_t> bytes, std::string_view tag,
                                   std::size_t offset, std::uint64_t value, int width) {
  // Frame: u32 magic | 4-byte tag | u32 version | u64 length | u32 crc.
  std::size_t frame = 8;  // after the preamble
  for (;;) {
    std::uint64_t length = 0;
    for (int i = 0; i < 8; ++i) length |= std::uint64_t{bytes.at(frame + 12 + i)} << (8 * i);
    const std::size_t payload = frame + 24;
    if (std::string_view(reinterpret_cast<const char*>(&bytes.at(frame + 4)), 4) == tag) {
      for (int i = 0; i < width; ++i) {
        bytes.at(payload + offset + i) = static_cast<std::uint8_t>(value >> (8 * i));
      }
      const std::uint32_t crc = snap::detail::crc32(bytes.data() + payload, length);
      for (int i = 0; i < 4; ++i) {
        bytes[payload - 4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
      }
      return bytes;
    }
    frame = payload + length;
  }
}

}  // namespace

TEST(SnapshotArchive, PrimitivesRoundTripExactly) {
  struct Fields {
    std::uint8_t u8 = 0;
    bool yes = false;
    bool no = true;
    std::uint32_t u32 = 0;
    std::uint64_t u64 = 0;
    std::int64_t i64 = 0;
    double neg_zero = 1.0;
    double nan = 0.0;
    double denormal = 0.0;
    std::string str;
    std::vector<double> f64v;
    std::vector<std::uint64_t> u64v;
    std::vector<std::uint32_t> u32v;

    void checkpoint(snap::Archive& ar) {
      ar.u8(u8);
      ar.boolean(yes);
      ar.boolean(no);
      ar.u32(u32);
      ar.u64(u64);
      ar.i64(i64);
      ar.f64(neg_zero);
      ar.f64(nan);
      ar.f64(denormal);
      ar.str(str);
      ar.f64v(f64v);
      ar.u64v(u64v);
      ar.u32v(u32v);
    }
  };
  Fields saved{0xAB, true, false, 0xDEADBEEFU, 0x0123456789ABCDEFULL, -42, -0.0,
               std::nan(""), 1e-310 /* denormal */, "sheriff", {1.5, -2.5, 0.0}, {7, 8},
               {1, 2, 3}};
  const std::vector<std::uint8_t> bytes =
      one_section("TEST", 3, [&](snap::Archive& ar) { saved.checkpoint(ar); });

  snap::Archive in(bytes);
  EXPECT_TRUE(in.loading());
  EXPECT_FALSE(in.at_end());
  Fields r;
  in.begin_section("TEST", 3);
  r.checkpoint(in);
  in.end_section();
  EXPECT_TRUE(in.at_end());
  EXPECT_EQ(r.u8, 0xAB);
  EXPECT_TRUE(r.yes);
  EXPECT_FALSE(r.no);
  EXPECT_EQ(r.u32, 0xDEADBEEFU);
  EXPECT_EQ(r.u64, 0x0123456789ABCDEFULL);
  EXPECT_EQ(r.i64, -42);
  EXPECT_EQ(r.neg_zero, 0.0);
  EXPECT_TRUE(std::signbit(r.neg_zero));
  EXPECT_TRUE(std::isnan(r.nan));
  EXPECT_EQ(r.denormal, 1e-310);
  EXPECT_EQ(r.str, "sheriff");
  EXPECT_EQ(r.f64v, (std::vector<double>{1.5, -2.5, 0.0}));
  EXPECT_EQ(r.u64v, (std::vector<std::uint64_t>{7, 8}));
  EXPECT_EQ(r.u32v, (std::vector<std::uint32_t>{1, 2, 3}));
}

TEST(SnapshotArchive, TruncatedSectionFailsLoudly) {
  std::vector<double> samples(64, 3.14);
  std::vector<std::uint8_t> bytes =
      one_section("TRNC", 1, [&](snap::Archive& ar) { ar.f64v(samples); });
  bytes.resize(bytes.size() - 5);
  snap::Archive in(std::move(bytes));
  EXPECT_THROW(in.begin_section("TRNC", 1), snap::SnapshotError);
}

TEST(SnapshotArchive, CorruptPayloadFailsCrc) {
  std::string payload = "payload that will rot";
  std::vector<std::uint8_t> bytes =
      one_section("CRCC", 1, [&](snap::Archive& ar) { ar.str(payload); });
  bytes.back() ^= 0x01;  // bit rot in the payload
  snap::Archive in(std::move(bytes));
  EXPECT_THROW(in.begin_section("CRCC", 1), snap::SnapshotError);
}

TEST(SnapshotArchive, VersionSkewIsRejectedWithDiagnostic) {
  std::uint64_t one = 1;
  snap::Archive in(one_section("VERS", 2, [&](snap::Archive& ar) { ar.u64(one); }));
  try {
    in.begin_section("VERS", 1);
    FAIL() << "version skew accepted";
  } catch (const snap::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("version skew"), std::string::npos);
  }
}

TEST(SnapshotArchive, BadPreambleIsRejected) {
  std::vector<std::uint8_t> bytes = one_section("OKAY", 1, [](snap::Archive&) {});
  bytes[0] ^= 0xFF;
  EXPECT_THROW(snap::Archive in(std::move(bytes)), snap::SnapshotError);
}

TEST(SnapshotArchive, CorruptElementCountIsRejectedNotAllocated) {
  // A huge element count must throw before any allocation is sized by it.
  std::uint64_t huge = 0xFFFFFFFFFFFFFFFFULL;  // claims ~2^64 elements
  snap::Archive in(one_section("CNTS", 1, [&](snap::Archive& ar) { ar.u64(huge); }));
  in.begin_section("CNTS", 1);
  std::uint64_t n = 0;
  EXPECT_THROW(in.count(n, 8), snap::SnapshotError);
  // The same count through a vector field fails the same way.
  snap::Archive again(one_section("CNTS", 1, [&](snap::Archive& ar) { ar.u64(huge); }));
  again.begin_section("CNTS", 1);
  std::vector<double> v;
  EXPECT_THROW(again.f64v(v), snap::SnapshotError);
  EXPECT_TRUE(v.empty());
}

TEST(SnapshotArchive, LeftoverPayloadBytesAreAnError) {
  std::uint64_t a = 1;
  std::uint64_t b = 2;
  snap::Archive in(one_section("LEFT", 1, [&](snap::Archive& ar) {
    ar.u64(a);
    ar.u64(b);
  }));
  in.begin_section("LEFT", 1);
  std::uint64_t first = 0;
  in.u64(first);
  EXPECT_EQ(first, 1U);
  EXPECT_THROW(in.end_section(), snap::SnapshotError);
}

// --- CRC-32 ------------------------------------------------------------------

TEST(SnapshotCrc, KnownAnswers) {
  const std::string_view check = "123456789";
  const auto* digits = reinterpret_cast<const std::uint8_t*>(check.data());
  EXPECT_EQ(snap::detail::crc32(digits, check.size()), 0xCBF43926U);
  EXPECT_EQ(sheriff::oracle::crc32_bytewise(digits, check.size()), 0xCBF43926U);
  EXPECT_EQ(snap::detail::crc32(digits, 0), 0U);
  EXPECT_EQ(snap::detail::crc32(nullptr, 0), 0U);
}

// The slicing-by-8 loop against the byte loop: every length across the
// 8-byte steps and the byte tail, at every alignment, and one large range.
TEST(SnapshotCrc, SlicingBy8MatchesTheByteLoop) {
  constexpr std::size_t kMaxLength = 1100;
  sc::Pcg32 rng(0xC5C32, 1);
  std::vector<std::uint8_t> bytes(kMaxLength + 7);
  for (std::uint8_t& b : bytes) b = static_cast<std::uint8_t>(rng.next_u32());
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= kMaxLength; ++length) {
      ASSERT_EQ(snap::detail::crc32(bytes.data() + offset, length),
                sheriff::oracle::crc32_bytewise(bytes.data() + offset, length))
          << "offset " << offset << ", length " << length;
    }
  }
  std::vector<std::uint8_t> mebibyte(std::size_t{1} << 20);
  for (std::uint8_t& b : mebibyte) b = static_cast<std::uint8_t>(rng.next_u32());
  EXPECT_EQ(snap::detail::crc32(mebibyte.data(), mebibyte.size()),
            sheriff::oracle::crc32_bytewise(mebibyte.data(), mebibyte.size()));
}

// --- RNG state round-trip (satellite: common::Rng) ---------------------------

TEST(SnapshotRng, SaveRestoreNextDrawEqualsUninterrupted) {
  sc::Pcg32 rng(2024, 7);
  (void)rng.normal();  // may leave a cached second deviate
  const sc::Pcg32::State saved = rng.state();

  std::vector<double> uninterrupted;
  for (int i = 0; i < 8; ++i) uninterrupted.push_back(rng.next_double());
  for (int i = 0; i < 8; ++i) uninterrupted.push_back(rng.normal());
  for (int i = 0; i < 8; ++i) uninterrupted.push_back(rng.uniform(-3.0, 9.0));

  sc::Pcg32 restored(1, 1);  // arbitrary seed, fully overwritten
  restored.restore(saved);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(restored.next_double(), uninterrupted[i]);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(restored.normal(), uninterrupted[8 + i]);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(restored.uniform(-3.0, 9.0), uninterrupted[16 + i]);
}

// --- per-subsystem round-trips ----------------------------------------------

namespace {

/// Saves `source` into one section and loads it into `target`.
template <typename T>
void round_trip(T& source, T& target) {
  snap::Archive in(one_section("UNIT", 1, [&](snap::Archive& ar) { source.checkpoint(ar); }));
  in.begin_section("UNIT", 1);
  target.checkpoint(in);
  in.end_section();
}

}  // namespace

TEST(SnapshotSubsystems, SeasonalTraceGeneratorResumesMidStream) {
  wl::SeasonalTraceOptions options;
  options.burst_probability = 0.05;
  options.burst_magnitude = 10.0;
  wl::SeasonalTraceGenerator a(options, 99);
  for (int i = 0; i < 100; ++i) (void)a.next();

  wl::SeasonalTraceGenerator b(options, 99);
  round_trip(a, b);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SnapshotSubsystems, WeeklyTrafficGeneratorResumesMidStream) {
  wl::WeeklyTrafficGenerator a(wl::WeeklyTrafficGenerator::Options{}, 3);
  for (int i = 0; i < 77; ++i) (void)a.next();
  wl::WeeklyTrafficGenerator b(wl::WeeklyTrafficGenerator::Options{}, 3);
  round_trip(a, b);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SnapshotSubsystems, ReplayTraceGeneratorKeepsPosition) {
  wl::ReplayTraceGenerator a({1.0, 2.0, 3.0, 4.0}, /*loop=*/true);
  (void)a.next();
  (void)a.next();
  wl::ReplayTraceGenerator b({1.0, 2.0, 3.0, 4.0}, /*loop=*/true);
  round_trip(a, b);
  for (int i = 0; i < 9; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(SnapshotSubsystems, HoltScalarStateRoundTrips) {
  core::HoltScalar a(0.4, 0.3);
  for (int i = 0; i < 20; ++i) a.observe(0.1 * i);
  core::HoltScalar b(0.4, 0.3);
  round_trip(a, b);
  EXPECT_EQ(a.predict(3), b.predict(3));
  a.observe(1.7);
  b.observe(1.7);
  EXPECT_EQ(a.predict(1), b.predict(1));
}

TEST(SnapshotSubsystems, FittedArimaForecastsIdentically) {
  std::vector<double> series;
  sc::Pcg32 rng(5);
  for (int i = 0; i < 120; ++i) series.push_back(10.0 + 3.0 * std::sin(i / 7.0) + rng.normal());

  ts::ArimaModel a(ts::ArimaOrder{2, 1, 1});
  a.fit(series);
  ts::ArimaModel b(ts::ArimaOrder{2, 1, 1});
  round_trip(a, b);
  EXPECT_EQ(a.forecast(series, 12), b.forecast(series, 12));
}

TEST(SnapshotSubsystems, FittedNarnetForecastsIdentically) {
  std::vector<double> series;
  for (int i = 0; i < 90; ++i) series.push_back(5.0 + 2.0 * std::sin(i / 5.0));
  ts::NarNet a(ts::NarNet::Options{});
  a.fit(series);
  ts::NarNet b(ts::NarNet::Options{});
  round_trip(a, b);
  EXPECT_EQ(a.forecast(series, 8), b.forecast(series, 8));
}

TEST(SnapshotSubsystems, DynamicModelSelectorKeepsFitnessAndSelection) {
  const auto make = [] {
    auto s = std::make_unique<ts::DynamicModelSelector>(8);
    s->add_model(ts::make_arima_forecaster(1, 1, 1));
    s->add_model(ts::make_narnet_forecaster(4, 8, 17));
    s->add_model(ts::make_naive_forecaster());
    return s;
  };
  std::vector<double> series;
  sc::Pcg32 rng(13);
  for (int i = 0; i < 100; ++i) series.push_back(20.0 + 5.0 * std::sin(i / 9.0) + rng.normal());

  auto a = make();
  a->fit(series);
  std::vector<double> history(series);
  for (int i = 0; i < 12; ++i) {
    (void)a->predict_next(history);
    const double truth = 20.0 + 5.0 * std::sin((100 + i) / 9.0);
    a->observe(truth);
    history.push_back(truth);
  }

  auto b = make();
  round_trip(*a, *b);
  EXPECT_EQ(a->best_model(), b->best_model());
  EXPECT_EQ(a->forecast(history, 6), b->forecast(history, 6));
}

TEST(SnapshotSubsystems, SelectorRejectsMismatchedCandidateSet) {
  auto a = std::make_unique<ts::DynamicModelSelector>(8);
  a->add_model(ts::make_naive_forecaster());
  a->add_model(ts::make_arima_forecaster(1, 0, 0));

  auto b = std::make_unique<ts::DynamicModelSelector>(8);
  b->add_model(ts::make_naive_forecaster());  // one candidate, not two

  snap::Archive in(one_section("UNIT", 1, [&](snap::Archive& ar) { a->checkpoint(ar); }));
  in.begin_section("UNIT", 1);
  EXPECT_THROW(b->checkpoint(in), snap::SnapshotError);
}

TEST(SnapshotSubsystems, ForecastersRejectAFitOfAnotherShape) {
  std::vector<double> series;
  for (int i = 0; i < 90; ++i) series.push_back(5.0 + 2.0 * std::sin(i / 5.0));
  const auto load_into = [](auto& saved, auto& target) {
    snap::Archive in(one_section("UNIT", 1, [&](snap::Archive& ar) { saved.checkpoint(ar); }));
    in.begin_section("UNIT", 1);
    target.checkpoint(in);
  };

  ts::ArimaModel arima(ts::ArimaOrder{2, 1, 1});
  arima.fit(series);
  ts::ArimaModel lower_order(ts::ArimaOrder{1, 1, 1});
  EXPECT_THROW(load_into(arima, lower_order), snap::SnapshotError);

  ts::NarNet::Options wide;
  wide.hidden = 12;
  ts::NarNet narnet(wide);
  narnet.fit(series);
  ts::NarNet::Options narrow = wide;
  narrow.hidden = 4;
  ts::NarNet fewer_units(narrow);
  EXPECT_THROW(load_into(narnet, fewer_units), snap::SnapshotError);
}

TEST(SnapshotSubsystems, ReplayTraceGeneratorRejectsAPositionPastItsTrace) {
  wl::ReplayTraceGenerator a({1.0, 2.0, 3.0, 4.0, 5.0, 6.0}, /*loop=*/true);
  for (int i = 0; i < 5; ++i) (void)a.next();  // position 5 of 6
  wl::ReplayTraceGenerator b({1.0, 2.0, 3.0, 4.0}, /*loop=*/true);
  snap::Archive in(one_section("UNIT", 1, [&](snap::Archive& ar) { a.checkpoint(ar); }));
  in.begin_section("UNIT", 1);
  EXPECT_THROW(b.checkpoint(in), snap::SnapshotError);
}

// CRC-32 detects rot, not forgery: anyone can recompute it. A re-sealed
// archive whose full trace ring carries an overwrite cursor past the ring
// must fail its load, or the next emit() would write outside the ring.
TEST(SnapshotSubsystems, TraceRingRejectsAHeadOutsideTheRing) {
  constexpr std::size_t kCapacity = 4;
  obs::EventTrace saved(/*shim_count=*/0, kCapacity);  // the engine ring only
  for (std::uint32_t i = 0; i < 6; ++i) {
    saved.emit(obs::EventTrace::kEngine, obs::EventType::kAlertRaised, i);
  }
  const std::vector<std::uint8_t> bytes =
      one_section("OBSR", 1, [&](snap::Archive& ar) { saved.checkpoint(ar); });

  // Payload: u64 ring count, u64 slot count, 4 records of 33 bytes, then
  // the u64 head.
  constexpr std::size_t kHead = 8 + 8 + kCapacity * 33;
  const auto with_head = [&](std::uint64_t head) {
    return resealed(bytes, "OBSR", kHead, head, 8);
  };
  const auto load = [&](std::vector<std::uint8_t> forged) {
    obs::EventTrace restored(0, kCapacity);
    snap::Archive in(std::move(forged));
    in.begin_section("OBSR", 1);
    restored.checkpoint(in);
    in.end_section();
    restored.emit(obs::EventTrace::kEngine, obs::EventType::kAlertRaised);
    return restored.snapshot().size();
  };
  EXPECT_EQ(load(with_head(2)), kCapacity);  // the saved cursor: 6 emits into 4 slots
  EXPECT_EQ(load(with_head(3)), kCapacity);
  EXPECT_THROW(load(with_head(kCapacity)), snap::SnapshotError);
  EXPECT_THROW(load(with_head(0xFFFFFFFFFFFFFFFFULL)), snap::SnapshotError);
}

// --- full-engine resume equivalence ------------------------------------------

namespace {

struct ParityOptions {
  bool faulted = false;
  std::size_t half_rounds = 20;
  core::PredictorKind predictor = core::PredictorKind::kHolt;
};

core::EngineConfig parity_config(const fault::FaultPlan* plan, core::PredictorKind predictor) {
  core::EngineConfig config;
  config.observe = true;
  config.predictor = predictor;
  config.fault_plan = plan;
  return config;
}

std::string metrics_csv(const std::vector<core::RoundMetrics>& rounds) {
  std::ostringstream os;
  core::write_metrics_csv(os, rounds);
  return os.str();
}

std::vector<std::uint32_t> placement(const core::DistributedEngine& engine) {
  std::vector<std::uint32_t> hosts;
  for (wl::VmId vm = 0; vm < engine.deployment().vm_count(); ++vm) {
    hosts.push_back(engine.deployment().vm(vm).host);
  }
  return hosts;
}

void expect_traces_equal(const core::DistributedEngine& a, const core::DistributedEngine& b) {
  const auto ta = a.observation_hub()->trace().snapshot();
  const auto tb = b.observation_hub()->trace().snapshot();
  ASSERT_EQ(ta.size(), tb.size());
  for (std::size_t i = 0; i < ta.size(); ++i) {
    EXPECT_EQ(ta[i].seq, tb[i].seq);
    EXPECT_EQ(ta[i].round, tb[i].round);
    EXPECT_EQ(ta[i].shim, tb[i].shim);
    EXPECT_EQ(ta[i].type, tb[i].type);
    EXPECT_EQ(ta[i].a, tb[i].a);
    EXPECT_EQ(ta[i].b, tb[i].b);
    EXPECT_EQ(ta[i].value, tb[i].value);
    if (ta[i].seq != tb[i].seq) break;  // one diagnostic, not thousands
  }
  EXPECT_EQ(a.observation_hub()->trace().next_seq(), b.observation_hub()->trace().next_seq());
}

fault::FaultPlan parity_fault_plan(const topo::Topology& topology, std::size_t half_rounds) {
  fault::FaultOptions options;
  options.seed = 17;
  options.message_drop_probability = 0.15;
  // Link flaps on both sides of the save point, plus a permanent host
  // loss and a shim crash straddling the resume — the injector-replay
  // restore path has to reproduce all of it. Explicit link ids (not
  // random_link_flaps) so the same plan shape works on server-centric
  // fabrics like BCube, which have no switch-to-switch links.
  fault::FaultPlan plan(options);
  const auto link = [&](std::size_t nth) {
    return static_cast<topo::LinkId>(nth % topology.link_count());
  };
  plan.fail_link(link(7), 2, 6);
  plan.fail_link(link(23), half_rounds - 1, half_rounds + 3);
  plan.fail_link(link(41), half_rounds + 4, 2 * half_rounds - 2);
  plan.fail_host(topology.rack(1).hosts[0], half_rounds / 2);
  plan.fail_shim(0, half_rounds - 2, half_rounds + 2);
  return plan;
}

/// The headline guarantee: an uninterrupted 2H-round run vs H rounds →
/// serialize → fresh engine → deserialize → H more rounds. Metrics CSV, placement, and trace contents must match
/// byte for byte.
void expect_resume_equivalence(const topo::Topology& topology,
                               const wl::DeploymentOptions& deploy, const ParityOptions& opt) {
  fault::FaultPlan plan =
      opt.faulted ? parity_fault_plan(topology, opt.half_rounds) : fault::FaultPlan{};
  const fault::FaultPlan* plan_ptr = opt.faulted ? &plan : nullptr;
  const core::EngineConfig config = parity_config(plan_ptr, opt.predictor);

  // Uninterrupted reference.
  core::DistributedEngine continuous(topology, deploy, config);
  std::vector<core::RoundMetrics> continuous_tail;
  for (std::size_t r = 0; r < 2 * opt.half_rounds; ++r) {
    core::RoundMetrics m = continuous.run_round();
    if (r >= opt.half_rounds) continuous_tail.push_back(m);
  }

  // Save at H...
  core::DistributedEngine first_half(topology, deploy, config);
  for (std::size_t r = 0; r < opt.half_rounds; ++r) (void)first_half.run_round();
  const std::vector<std::uint8_t> checkpoint = core::Checkpoint::serialize(first_half);

  // ... load into a fresh engine and finish.
  core::DistributedEngine resumed(topology, deploy, config);
  core::Checkpoint::deserialize(resumed, checkpoint);
  ASSERT_EQ(resumed.rounds_run(), opt.half_rounds);
  std::vector<core::RoundMetrics> resumed_tail;
  for (std::size_t r = 0; r < opt.half_rounds; ++r) resumed_tail.push_back(resumed.run_round());

  EXPECT_EQ(metrics_csv(continuous_tail), metrics_csv(resumed_tail));
  EXPECT_EQ(placement(continuous), placement(resumed));
  expect_traces_equal(continuous, resumed);
}

topo::Topology small_fat_tree() {
  topo::FatTreeOptions options;
  options.pods = 4;
  options.hosts_per_rack = 3;
  options.tor_agg_gbps = 1.0;
  return topo::build_fat_tree(options);
}

topo::Topology small_bcube() {
  // levels = 2 so the fabric has switch-to-switch links for the flap plan.
  topo::BCubeOptions options;
  options.ports = 3;
  options.levels = 2;
  return topo::build_bcube(options);
}

wl::DeploymentOptions parity_deployment() {
  wl::DeploymentOptions options;
  options.seed = 23;
  options.vms_per_host = 2.5;
  options.placement = wl::PlacementPolicy::kSkewed;
  return options;
}

}  // namespace

TEST(SnapshotEngine, FatTreePristineResumesByteIdentical) {
  expect_resume_equivalence(small_fat_tree(), parity_deployment(), {});
}

TEST(SnapshotEngine, FatTreeFaultedResumesByteIdentical) {
  ParityOptions opt;
  opt.faulted = true;
  expect_resume_equivalence(small_fat_tree(), parity_deployment(), opt);
}

TEST(SnapshotEngine, BCubePristineResumesByteIdentical) {
  expect_resume_equivalence(small_bcube(), parity_deployment(), {});
}

TEST(SnapshotEngine, BCubeFaultedResumesByteIdentical) {
  ParityOptions opt;
  opt.faulted = true;
  expect_resume_equivalence(small_bcube(), parity_deployment(), opt);
}

// An observed, audited run resumed at any round writes the checkpoint of
// the run that never stopped, byte for byte: OBSR's registry, trace rings
// and auditor tallies included. Sheriff, centralized and k-median modes,
// each pristine and faulted (8 link flaps, rack 1's ToR out over rounds
// 4–9, 20% message loss), saved before, inside and after the outage.
TEST(SnapshotEngine, ObservedRunsResumeByteIdentically) {
  const topo::Topology topology = small_fat_tree();
  fault::FaultOptions options;
  options.seed = 5;
  options.message_drop_probability = 0.2;
  fault::FaultPlan faults = fault::FaultPlan::random_link_flaps(topology, options, 8, 1, 16);
  const fault::FaultPlan outage = fault::FaultPlan::tor_outage(topology, 1, 4, 9);
  for (const fault::FaultEvent& e : outage.events()) faults.add(e);
  constexpr std::size_t kRounds = 20;
  const std::vector<std::size_t> saves{2, 3, 5, 7, 8, 10, 13};
  for (const core::ManagerMode mode :
       {core::ManagerMode::kSheriff, core::ManagerMode::kCentralized, core::ManagerMode::kKMedian}) {
    for (const bool faulted : {false, true}) {
      core::EngineConfig config;
      config.mode = mode;
      config.observe = true;
      config.audit = true;
      config.fault_plan = faulted ? &faults : nullptr;
      core::DistributedEngine continuous(topology, parity_deployment(), config);
      std::vector<std::vector<std::uint8_t>> saved;
      while (continuous.rounds_run() < kRounds) {
        (void)continuous.run_round();
        if (std::ranges::find(saves, continuous.rounds_run()) != saves.end()) {
          saved.push_back(core::Checkpoint::serialize(continuous));
        }
      }
      const std::vector<std::uint8_t> want = core::Checkpoint::serialize(continuous);
      for (std::size_t i = 0; i < saves.size(); ++i) {
        core::DistributedEngine resumed(topology, parity_deployment(), config);
        core::Checkpoint::deserialize(resumed, saved[i]);
        while (resumed.rounds_run() < kRounds) (void)resumed.run_round();
        EXPECT_TRUE(core::Checkpoint::serialize(resumed) == want)
            << "mode " << static_cast<int>(mode) << (faulted ? " faulted" : " pristine")
            << ", resumed from round " << saves[i];
      }
    }
  }
}

// FLOW stores node paths only. The load rebuilds each flow's link ids,
// which must be the ones the saved engine's router wrote — here with a
// link down at the save, so some flows run on detours.
TEST(SnapshotEngine, RestoredFlowsCarryTheSavedLinks) {
  const topo::Topology topology = small_fat_tree();
  const fault::FaultPlan plan = parity_fault_plan(topology, 10);
  const core::EngineConfig config = parity_config(&plan, core::PredictorKind::kHolt);
  core::DistributedEngine saved(topology, parity_deployment(), config);
  for (std::size_t r = 0; r < 10; ++r) (void)saved.run_round();
  core::DistributedEngine restored(topology, parity_deployment(), config);
  core::Checkpoint::deserialize(restored, core::Checkpoint::serialize(saved));

  ASSERT_EQ(restored.flows().size(), saved.flows().size());
  std::size_t routed = 0;
  for (std::size_t f = 0; f < saved.flows().size(); ++f) {
    const net::Flow& want = saved.flows()[f];
    const net::Flow& got = restored.flows()[f];
    EXPECT_EQ(got.path, want.path) << "flow " << f;
    EXPECT_EQ(got.links, want.links) << "flow " << f;
    routed += want.routed() ? 1 : 0;
  }
  EXPECT_GT(routed, 0u);
}

TEST(SnapshotEngine, EnsemblePredictorResumesAcrossTheFirstFit) {
  // H=30: the save lands before the ensemble's first fit (min_fit 48), so
  // the resumed run must fit from restored histories mid-flight and still
  // match the uninterrupted run bit for bit.
  topo::FatTreeOptions topo_options;
  topo_options.pods = 4;
  topo_options.hosts_per_rack = 1;
  wl::DeploymentOptions deploy;
  deploy.seed = 31;
  deploy.vms_per_host = 1.5;
  ParityOptions opt;
  opt.half_rounds = 30;
  opt.predictor = core::PredictorKind::kEnsemble;
  expect_resume_equivalence(topo::build_fat_tree(topo_options), deploy, opt);
}

TEST(SnapshotEngine, CheckpointRejectsMismatchedEngine) {
  const topo::Topology fat_tree = small_fat_tree();
  core::DistributedEngine source(fat_tree, parity_deployment(), core::EngineConfig{});
  (void)source.run_round();
  const std::vector<std::uint8_t> checkpoint = core::Checkpoint::serialize(source);

  // Different topology.
  {
    const topo::Topology bcube = small_bcube();
    core::DistributedEngine target(bcube, parity_deployment(), core::EngineConfig{});
    EXPECT_THROW(core::Checkpoint::deserialize(target, checkpoint), snap::SnapshotError);
  }
  // Different config (manager mode is fingerprinted).
  {
    core::EngineConfig config;
    config.mode = core::ManagerMode::kCentralized;
    core::DistributedEngine target(fat_tree, parity_deployment(), config);
    EXPECT_THROW(core::Checkpoint::deserialize(target, checkpoint), snap::SnapshotError);
  }
  // Different deployment seed => different placement/flow fingerprint...
  // unless counts happen to collide; the load must still succeed or throw,
  // never crash. Same-everything must succeed:
  {
    core::DistributedEngine target(fat_tree, parity_deployment(), core::EngineConfig{});
    EXPECT_NO_THROW(core::Checkpoint::deserialize(target, checkpoint));
    EXPECT_EQ(target.rounds_run(), 1U);
  }
}

// CRC-32 detects rot, not forgery. A re-sealed checkpoint that places a VM
// or a flow end off the topology's hosts, lists a VM on a host it does not
// live on, or routes a flow over nodes or hops the topology lacks must fail
// its load: move_vm() and the per-node tables index memory with them.
TEST(SnapshotEngine, ResealedPlacementOrPathOffTheTopologyIsRejected) {
  const topo::Topology topology = small_fat_tree();
  core::DistributedEngine source(topology, parity_deployment(), core::EngineConfig{});
  (void)source.run_round();
  const std::vector<std::uint8_t> bytes = core::Checkpoint::serialize(source);
  const auto load = [&](std::vector<std::uint8_t> forged) {
    core::DistributedEngine target(topology, parity_deployment(), core::EngineConfig{});
    core::Checkpoint::deserialize(target, std::move(forged));
  };
  const std::vector<topo::NodeId> hosts = topology.nodes_of_kind(topo::NodeKind::kHost);
  const topo::NodeId tor = topology.nodes_of_kind(topo::NodeKind::kTorSwitch).front();
  const auto nodes = static_cast<std::uint64_t>(topology.node_count());
  const wl::Deployment& deployment = source.deployment();

  // DEPL: u64 VM count, then per VM its u32 host and four f64 features.
  constexpr std::size_t kVmHost = 8;
  const topo::NodeId home = deployment.vm(0).host;
  const topo::NodeId elsewhere = home == hosts.front() ? hosts.back() : hosts.front();
  ASSERT_TRUE(resealed(bytes, "DEPL", kVmHost, home, 4) == bytes);
  EXPECT_THROW(load(resealed(bytes, "DEPL", kVmHost, tor, 4)), snap::SnapshotError);
  EXPECT_THROW(load(resealed(bytes, "DEPL", kVmHost, nodes, 4)), snap::SnapshotError);
  EXPECT_THROW(load(resealed(bytes, "DEPL", kVmHost, elsewhere, 4)), snap::SnapshotError);

  // Then a u64 list count and, per node, a u64 VM count and u32 VM ids.
  std::size_t list = 8 + deployment.vm_count() * (4 + 8 * wl::kFeatureCount) + 8;
  topo::NodeId first_host = 0;
  while (deployment.vms_on_host(first_host).empty()) {
    list += 8;
    ++first_host;
  }
  const wl::VmId listed = deployment.vms_on_host(first_host).front();
  const auto other = static_cast<wl::VmId>(
      deployment.vm(0).host == first_host ? deployment.vm_count() - 1 : 0);
  ASSERT_NE(deployment.vm(other).host, first_host);
  ASSERT_TRUE(resealed(bytes, "DEPL", list + 8, listed, 4) == bytes);
  EXPECT_THROW(load(resealed(bytes, "DEPL", list + 8, deployment.vm_count(), 4)),
               snap::SnapshotError);
  EXPECT_THROW(load(resealed(bytes, "DEPL", list + 8, other, 4)), snap::SnapshotError);

  // FLOW: u64 flow count; flow 0's u32 src and dst, f64 demand, u8 DSCP,
  // then its u64 node count and u32 node ids.
  const net::Flow& flow = source.flows().front();
  ASSERT_GE(flow.path.size(), 3U);
  constexpr std::size_t kSrc = 8;
  constexpr std::size_t kSecondNode = 8 + 4 + 4 + 8 + 1 + 8 + 4;
  ASSERT_TRUE(resealed(bytes, "FLOW", kSrc, flow.src_host, 4) == bytes);
  ASSERT_TRUE(resealed(bytes, "FLOW", kSecondNode, flow.path[1], 4) == bytes);
  EXPECT_THROW(load(resealed(bytes, "FLOW", kSrc, tor, 4)), snap::SnapshotError);
  EXPECT_THROW(load(resealed(bytes, "FLOW", kSecondNode, nodes, 4)), snap::SnapshotError);
  EXPECT_THROW(load(resealed(bytes, "FLOW", kSecondNode, flow.path[0], 4)),
               snap::SnapshotError);  // a hop from a node to itself
  EXPECT_NO_THROW(load(bytes));
}

TEST(SnapshotEngine, UnknownSectionVersionIsRejected) {
  const topo::Topology topology = small_fat_tree();
  core::DistributedEngine source(topology, parity_deployment(), core::EngineConfig{});
  (void)source.run_round();
  std::vector<std::uint8_t> bytes = core::Checkpoint::serialize(source);
  // The first section's version field sits right after the 8-byte
  // preamble, the 4-byte magic, and the 4-byte tag.
  bytes[16] += 1;
  core::DistributedEngine target(topology, parity_deployment(), core::EngineConfig{});
  try {
    core::Checkpoint::deserialize(target, std::move(bytes));
    FAIL() << "future section version accepted";
  } catch (const snap::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find("version skew"), std::string::npos);
  }
}

TEST(SnapshotEngine, TruncatedAndCorruptCheckpointsFailLoudly) {
  const topo::Topology topology = small_fat_tree();
  core::DistributedEngine source(topology, parity_deployment(), core::EngineConfig{});
  (void)source.run_round();
  const std::vector<std::uint8_t> bytes = core::Checkpoint::serialize(source);

  for (const std::size_t keep : {bytes.size() - 1, bytes.size() / 2, std::size_t{11}}) {
    std::vector<std::uint8_t> truncated(bytes.begin(), bytes.begin() + keep);
    core::DistributedEngine target(topology, parity_deployment(), core::EngineConfig{});
    EXPECT_THROW(core::Checkpoint::deserialize(target, std::move(truncated)),
                 snap::SnapshotError)
        << "kept " << keep << " of " << bytes.size() << " bytes";
  }
  {
    std::vector<std::uint8_t> corrupt = bytes;
    corrupt[corrupt.size() / 2] ^= 0x40;
    core::DistributedEngine target(topology, parity_deployment(), core::EngineConfig{});
    EXPECT_THROW(core::Checkpoint::deserialize(target, std::move(corrupt)),
                 snap::SnapshotError);
  }
}

TEST(SnapshotEngine, LoadingADirectoryOrAMissingFileThrowsSnapshotError) {
  const topo::Topology topology = small_fat_tree();
  core::DistributedEngine target(topology, parity_deployment(), core::EngineConfig{});
  const std::string directory = ::testing::TempDir();
  try {
    core::Checkpoint::load(target, directory);
    FAIL() << "loaded a directory";
  } catch (const snap::SnapshotError& e) {
    EXPECT_NE(std::string(e.what()).find(directory), std::string::npos) << e.what();
  }
  EXPECT_THROW(core::Checkpoint::load(target, directory + "/no-such-checkpoint.snap"),
               snap::SnapshotError);
  EXPECT_EQ(target.rounds_run(), 0U);
}

// Archive mutation fuzz: no mutated checkpoint — random byte flips,
// overwrites, truncations, or garbage tails — may ever crash, hang, or
// over-allocate the loader; every failure mode must surface as a thrown
// SnapshotError. A load that happens to succeed is fine when the mutation
// misses anything load-bearing (e.g. flips a byte the CRC does cover but
// the mutated payload re-validates — it cannot: CRC mismatch throws — or
// lands in bytes the reader never consumes; both are vanishingly rare and
// harmless, so the assertion is "throws SnapshotError or loads", never
// "dies".)
TEST(SnapshotEngine, MutatedCheckpointsAlwaysFailAsSnapshotError) {
  const topo::Topology topology = small_fat_tree();
  core::DistributedEngine source(topology, parity_deployment(), core::EngineConfig{});
  for (int r = 0; r < 3; ++r) (void)source.run_round();
  const std::vector<std::uint8_t> pristine = core::Checkpoint::serialize(source);
  ASSERT_GT(pristine.size(), 64u);

  std::size_t threw = 0;
  std::size_t loaded = 0;
  for (std::uint64_t seed = 0; seed < 200; ++seed) {
    sc::Pcg32 rng(0x5EED0000 + seed, seed);
    std::vector<std::uint8_t> bytes = pristine;

    // Mutation recipe drawn from the seed: truncate, flip a burst of bytes,
    // overwrite a run with a constant, or append garbage. Several stacked
    // per seed so corruptions compound like real torn/bit-rotted files.
    const std::size_t edits = 1 + rng.next_below(3);
    for (std::size_t e = 0; e < edits; ++e) {
      switch (rng.next_below(4)) {
        case 0: {  // truncate anywhere, including inside the preamble
          bytes.resize(rng.next_below(static_cast<std::uint32_t>(bytes.size() + 1)));
          break;
        }
        case 1: {  // flip 1-8 random bytes
          if (bytes.empty()) break;
          const std::size_t flips = 1 + rng.next_below(8);
          for (std::size_t i = 0; i < flips; ++i) {
            bytes[rng.next_below(static_cast<std::uint32_t>(bytes.size()))] ^=
                static_cast<std::uint8_t>(1 + rng.next_below(255));
          }
          break;
        }
        case 2: {  // overwrite a run with a constant (fake lengths/counts)
          if (bytes.empty()) break;
          const std::size_t start = rng.next_below(static_cast<std::uint32_t>(bytes.size()));
          const std::size_t len = std::min<std::size_t>(1 + rng.next_below(16),
                                                        bytes.size() - start);
          const auto value = static_cast<std::uint8_t>(rng.next_u32());
          for (std::size_t i = 0; i < len; ++i) bytes[start + i] = value;
          break;
        }
        default: {  // append garbage (leftover bytes must be rejected)
          const std::size_t extra = 1 + rng.next_below(32);
          for (std::size_t i = 0; i < extra; ++i) {
            bytes.push_back(static_cast<std::uint8_t>(rng.next_u32()));
          }
          break;
        }
      }
    }
    if (bytes == pristine) continue;

    core::DistributedEngine target(topology, parity_deployment(), core::EngineConfig{});
    try {
      core::Checkpoint::deserialize(target, std::move(bytes));
      ++loaded;  // mutation missed everything load-bearing
    } catch (const snap::SnapshotError&) {
      ++threw;  // the one acceptable failure mode
    }
    // Anything else — std::bad_alloc from a forged count, a std::logic_error,
    // a segfault — escapes the try and fails the test (or kills the process,
    // which the harness reports just as loudly).
  }
  // The CRC and framing make silent acceptance of a corrupt archive
  // essentially impossible: virtually every seed must have thrown.
  EXPECT_GT(threw, 190u);
  EXPECT_LT(loaded, 10u);
}
