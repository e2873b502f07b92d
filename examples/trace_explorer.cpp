// trace_explorer: a guided tour of the observability layer (src/obs/).
// Runs a faulted Fat-Tree scenario with the event trace, the metric
// registry, and the invariant auditor all enabled, then shows the three
// export surfaces:
//
//   1. the per-round event summary (events per type per round),
//   2. the JSON Lines dump of every retained trace record (optionally
//      written to a file), round-trip parsed back as a self-check,
//   3. the name-sorted metric registry snapshot.
//
//   $ ./trace_explorer [rounds] [trace.jsonl]

#include <fstream>
#include <iostream>
#include <sstream>

#include "cli_args.hpp"
#include "core/engine.hpp"
#include "fault/fault_plan.hpp"
#include "obs/export.hpp"
#include "obs/hub.hpp"
#include "topology/fat_tree.hpp"

int main(int argc, char** argv) {
  using namespace sheriff;
  const int rounds = examples::positional(argc, argv, 1, 20, 1, 100000,
                                          "[rounds 1..100000] [trace.jsonl]");
  std::ofstream trace_file;
  if (argc > 2) {
    trace_file.open(argv[2]);
    examples::require_writable(argv[0], trace_file, argv[2]);
  }

  topo::FatTreeOptions topo_options;
  topo_options.pods = 4;
  topo_options.hosts_per_rack = 3;
  const auto topology = topo::build_fat_tree(topo_options);

  wl::DeploymentOptions deploy_options;
  deploy_options.seed = 11;
  deploy_options.vms_per_host = 2.5;

  // A small deterministic fault schedule so the trace has FaultInjected,
  // ShimTakeover, and protocol-loss events to show off.
  fault::FaultOptions fault_options;
  fault_options.seed = 11;
  fault_options.message_drop_probability = 0.1;
  auto plan = fault::FaultPlan::random_link_flaps(topology, fault_options, 2, 3, 10, 3);
  plan.fail_shim(1, 5, 12);
  plan.set_options(fault_options);

  core::EngineConfig config;
  config.fault_plan = &plan;
  config.observe = true;  // event trace + metric registry
  config.audit = true;    // invariant auditor at every round boundary
  core::DistributedEngine engine(topology, deploy_options, config);

  std::cout << "trace explorer on " << topology.name() << ", " << rounds
            << " rounds, observability + auditing on\n\n";
  engine.run(static_cast<std::size_t>(rounds));

  const obs::ObservationHub& hub = *engine.observation_hub();
  const auto records = hub.trace().snapshot();

  std::cout << "event summary (" << records.size() << " retained records, "
            << hub.trace().total_emitted() << " emitted, " << hub.trace().total_dropped()
            << " dropped to ring wrap):\n";
  obs::summarize_trace(records).print(std::cout);

  // JSONL round trip: what we write is exactly what we can read back.
  std::stringstream jsonl;
  obs::write_trace_jsonl(records, jsonl);
  const auto reparsed = obs::read_trace_jsonl(jsonl);
  std::cout << "\nJSONL round trip: " << records.size() << " records out, " << reparsed.size()
            << " parsed back, " << (reparsed == records ? "identical" : "MISMATCH") << "\n";
  if (argc > 2) {
    obs::write_trace_jsonl(records, trace_file);
    examples::require_writable(argv[0], trace_file, argv[2]);
    std::cout << "trace written to " << argv[2] << "\n";
  }

  std::cout << "\nmetric registry (" << hub.registry().size() << " metrics):\n";
  obs::metrics_table(hub.registry()).print(std::cout);

  const obs::InvariantAuditor& auditor = *hub.auditor();
  std::cout << "\nauditor: " << auditor.rounds_audited() << " rounds audited, "
            << auditor.violation_count() << " violations\n";
  for (const auto& message : auditor.messages()) std::cout << "  " << message << "\n";
  return auditor.violation_count() == 0 ? 0 : 1;
}
