#include "perfbench/workloads.h"

#include <algorithm>

#include "src/baselines/fastswap.h"
#include "src/baselines/gam.h"
#include "src/baselines/mind_system.h"

namespace perfbench {
namespace {

using mind::Pattern;
using mind::WorkloadSpec;

uint64_t Scaled(uint64_t ops, double scale) {
  return std::max<uint64_t>(static_cast<uint64_t>(static_cast<double>(ops) * scale), 200);
}

// The paper's evaluation rack (8 memory blades, 512 MB of DRAM cache per compute blade,
// 30k directory slots, 45k TCAM rules), as the figure benches configure it.
mind::RackConfig PaperRack(int compute_blades) {
  mind::RackConfig c;
  c.num_compute_blades = compute_blades;
  c.num_memory_blades = 8;
  c.memory_blade_capacity = 8ull << 30;
  c.compute_cache_bytes = 512ull << 20;
  c.directory_slots = 30000;
  c.tcam_rules = 45000;
  c.splitting.epoch_length = 5 * mind::kMillisecond;
  return c;
}

// --- resident: fig_replay_throughput's blade_resident series ----------------
WorkloadSpec ResidentSpec(uint64_t seed, double scale) {
  WorkloadSpec s;
  s.name = "resident";
  s.num_blades = 8;
  s.threads_per_blade = 1;
  s.private_pages_per_thread = 1024;  // 4 MB, far below the 512 MB cache.
  s.private_pattern = Pattern::kUniform;
  s.private_write_fraction = 0.5;
  s.accesses_per_thread = Scaled(250'000, scale);
  s.think_time = 200;
  s.seed = seed;
  return s;
}
std::unique_ptr<mind::MemorySystem> MakeResidentSystem() {
  return std::make_unique<mind::MindSystem>(PaperRack(8));
}

// --- gam_contended: fig_replay_throughput's gam_contended series -------------
WorkloadSpec GamContendedSpec(uint64_t seed, double scale) {
  WorkloadSpec s;
  s.name = "gam_contended";
  s.num_blades = 4;
  s.threads_per_blade = 4;
  s.private_pages_per_thread = 2000;
  s.private_pattern = Pattern::kUniform;
  s.private_write_fraction = 0.5;
  s.shared_pages = 512;
  s.shared_access_fraction = 0.02;
  s.shared_write_fraction = 0.2;
  s.accesses_per_thread = Scaled(31'250, scale);
  s.think_time = 200;
  s.seed = seed;
  return s;
}
std::unique_ptr<mind::MemorySystem> MakeGamContendedSystem() {
  mind::GamConfig c;
  c.num_compute_blades = 4;
  c.num_memory_blades = 8;
  c.compute_cache_bytes = 512ull << 20;
  return std::make_unique<mind::GamSystem>(c);
}

// --- ma_contended: fig_load_latency's MIND row -------------------------------
WorkloadSpec MaContendedSpec(uint64_t seed, double scale) {
  WorkloadSpec s = mind::MemcachedASpec(/*blades=*/8, /*threads_per_blade=*/2,
                                        Scaled(15'000, scale));
  s.name = "ma_contended";
  s.shared_pages = 8192;
  s.think_time = 200;
  s.seed = seed;
  return s;
}
std::unique_ptr<mind::MemorySystem> MakeMaContendedSystem() {
  mind::RackConfig c = PaperRack(8);
  c.fabric.queue_model = mind::QueueModelKind::kWindowedMG1;
  return std::make_unique<mind::MindSystem>(c);
}

// --- swap_stream: fig_prefetch_coverage's stream row on FastSwap -------------
WorkloadSpec SwapStreamSpec(uint64_t seed, double scale) {
  WorkloadSpec s;
  s.name = "swap_stream";
  s.num_blades = 1;
  s.threads_per_blade = 4;
  s.private_pages_per_thread = 24'576;  // 96 MB per thread against a 32 MB cache.
  s.private_pattern = Pattern::kSequential;
  s.private_write_fraction = 0.3;
  s.accesses_per_thread = Scaled(30'000, scale);
  s.think_time = 600;
  s.seed = seed;
  return s;
}
std::unique_ptr<mind::MemorySystem> MakeSwapStreamSystem() {
  mind::FastSwapConfig c;
  c.num_memory_blades = 8;
  c.compute_cache_bytes = 32ull << 20;
  return std::make_unique<mind::FastSwapSystem>(c);
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> kWorkloads = {
      {"resident", 7, mind::PrefetchPolicy::kNone, ResidentSpec, MakeResidentSystem},
      {"gam_contended", 11, mind::PrefetchPolicy::kNone, GamContendedSpec,
       MakeGamContendedSystem},
      {"ma_contended", 17, mind::PrefetchPolicy::kNone, MaContendedSpec,
       MakeMaContendedSystem},
      {"swap_stream", 31, mind::PrefetchPolicy::kMajorityStride, SwapStreamSpec,
       MakeSwapStreamSystem},
  };
  return kWorkloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) {
      return &w;
    }
  }
  return nullptr;
}

}  // namespace perfbench
