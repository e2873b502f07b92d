// topology_atlas: tour the topology substrate — build Fat-Tree and BCube
// fabrics at several sizes, print their shape tables, sanity-check them,
// show a shim's dominating region, and (optionally) write GraphViz DOT
// files for visualization.
//
//   $ ./topology_atlas [dot_output_dir]

#include <fstream>
#include <iostream>
#include <vector>

#include "cli_args.hpp"
#include "common/table.hpp"
#include "net/routing.hpp"
#include "topology/bcube.hpp"
#include "topology/dot_export.hpp"
#include "topology/fat_tree.hpp"
#include "topology/three_tier.hpp"

int main(int argc, char** argv) {
  using namespace sheriff;
  const std::string dot_dir = argc > 1 ? argv[1] : "";
  // The small fabrics to draw, with their DOT files opened before the tour.
  std::vector<topo::Topology> drawn;
  std::vector<std::string> dot_paths;
  std::vector<std::ofstream> dot_files;
  if (!dot_dir.empty()) {
    topo::FatTreeOptions small_ft;
    small_ft.pods = 4;
    small_ft.hosts_per_rack = 2;
    topo::BCubeOptions small_bc;
    small_bc.ports = 4;
    small_bc.levels = 1;
    drawn.push_back(topo::build_fat_tree(small_ft));
    drawn.push_back(topo::build_bcube(small_bc));
    for (const topo::Topology& t : drawn) {
      dot_paths.push_back(dot_dir + "/" + t.name() + ".dot");
      dot_files.emplace_back(dot_paths.back());
      examples::require_writable(argv[0], dot_files.back(), dot_paths.back());
    }
  }

  std::cout << "== Fat-Tree family ==\n";
  common::Table ft({"pods", "racks", "hosts", "ToR", "agg", "core", "links",
                    "ECMP paths (cross-pod)", "region racks"});
  for (int k : {4, 8, 16, 24}) {
    topo::FatTreeOptions options;
    options.pods = k;
    options.hosts_per_rack = 2;
    const auto t = topo::build_fat_tree(options);
    net::Router router(t);
    const auto src = t.rack(0).hosts[0];
    const auto dst = t.rack(t.rack_count() - 1).hosts[0];
    ft.begin_row()
        .add(k)
        .add(t.rack_count())
        .add(t.count_kind(topo::NodeKind::kHost))
        .add(t.count_kind(topo::NodeKind::kTorSwitch))
        .add(t.count_kind(topo::NodeKind::kAggSwitch))
        .add(t.count_kind(topo::NodeKind::kCoreSwitch))
        .add(t.link_count())
        .add(router.shortest_path_count(src, dst))
        .add(t.neighbor_racks(0).size());
  }
  ft.print(std::cout);

  std::cout << "\n== BCube family ==\n";
  common::Table bc({"n", "levels", "racks", "servers", "switches", "links",
                    "server ports", "region racks"});
  for (const auto& [n, k] : {std::pair{4, 1}, std::pair{8, 1}, std::pair{4, 2},
                            std::pair{16, 1}}) {
    topo::BCubeOptions options;
    options.ports = n;
    options.levels = k;
    const auto t = topo::build_bcube(options);
    bc.begin_row()
        .add(n)
        .add(k + 1)
        .add(t.rack_count())
        .add(t.count_kind(topo::NodeKind::kHost))
        .add(t.count_kind(topo::NodeKind::kTorSwitch) +
             t.count_kind(topo::NodeKind::kBCubeSwitch))
        .add(t.link_count())
        .add(t.links_of(t.rack(0).hosts[0]).size())
        .add(t.neighbor_racks(0).size());
  }
  bc.print(std::cout);

  std::cout << "\n== Legacy three-tier family ==\n";
  common::Table tt({"racks", "racks/agg", "hosts", "agg", "core", "links", "region racks"});
  for (const auto& [racks, group] : {std::pair{8, 4}, std::pair{16, 4}, std::pair{32, 8}}) {
    topo::ThreeTierOptions options;
    options.racks = racks;
    options.racks_per_agg = group;
    const auto t = topo::build_three_tier(options);
    tt.begin_row()
        .add(t.rack_count())
        .add(group)
        .add(t.count_kind(topo::NodeKind::kHost))
        .add(t.count_kind(topo::NodeKind::kAggSwitch))
        .add(t.count_kind(topo::NodeKind::kCoreSwitch))
        .add(t.link_count())
        .add(t.neighbor_racks(0).size());
  }
  tt.print(std::cout);

  if (!dot_dir.empty()) {
    std::cout << '\n';
    for (std::size_t i = 0; i < drawn.size(); ++i) {
      topo::write_dot(dot_files[i], drawn[i]);
      examples::require_writable(argv[0], dot_files[i], dot_paths[i]);
      std::cout << "wrote " << dot_paths[i] << "\n";
    }
    std::cout << "render with: dot -Tsvg <file> -o out.svg (or neato)\n";
  } else {
    std::cout << "\n(pass an output directory to also write GraphViz DOT files)\n";
  }
  return 0;
}
