// Differential test: SharedCache vs a naive reference LRU model.
//
// The production cache uses packed lines, in-place shifting, per-owner
// residency counters, and an optional partition policy. The reference
// below is written for obviousness, not speed (std::vector of (line,
// owner) per set, explicit erase/insert). Both are driven with the
// same randomized multi-process access streams; every access must
// agree on hit/miss, and occupancy accounting must match exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "repro/common/rng.hpp"
#include "repro/sim/cache.hpp"

namespace repro::sim {
namespace {

class ReferenceCache {
 public:
  ReferenceCache(const CacheGeometry& g, std::vector<std::uint32_t> quotas)
      : geometry_(g), quotas_(std::move(quotas)), sets_(g.sets) {}

  bool access(const MemoryAccess& a, ProcessId pid) {
    auto& set = sets_[a.set];
    for (std::size_t i = 0; i < set.size(); ++i) {
      if (set[i].line == a.line && set[i].owner == pid) {
        const Entry hit = set[i];
        set.erase(set.begin() + static_cast<std::ptrdiff_t>(i));
        set.insert(set.begin(), hit);
        return true;
      }
    }
    // Miss: insert at MRU. Under partitioning the quota binds at every
    // install (not only when the set is full); otherwise evict the
    // global LRU when the set is full.
    if (!quotas_.empty()) {
      const std::size_t owned = static_cast<std::size_t>(
          std::count_if(set.begin(), set.end(), [&](const Entry& e) {
            return e.owner == pid;
          }));
      const std::uint32_t quota = pid < quotas_.size() ? quotas_[pid] : 0;
      if (owned >= quota) {
        // Evict pid's own LRU entry.
        for (std::size_t i = set.size(); i-- > 0;) {
          if (set[i].owner == pid) {
            set.erase(set.begin() + static_cast<std::ptrdiff_t>(i));
            break;
          }
        }
      } else if (set.size() == geometry_.ways) {
        set.pop_back();  // under quota, full set: global LRU
      }
    } else if (set.size() == geometry_.ways) {
      set.pop_back();  // global LRU
    }
    set.insert(set.begin(), Entry{a.line, pid});
    return false;
  }

  double occupancy_ways(ProcessId pid) const {
    double lines = 0.0;
    for (const auto& set : sets_)
      for (const Entry& e : set) lines += e.owner == pid ? 1.0 : 0.0;
    return lines / static_cast<double>(geometry_.sets);
  }

 private:
  struct Entry {
    std::uint64_t line;
    ProcessId owner;
  };
  CacheGeometry geometry_;
  std::vector<std::uint32_t> quotas_;
  std::vector<std::vector<Entry>> sets_;
};

struct ShadowCase {
  std::uint32_t sets;
  std::uint32_t ways;
  std::uint32_t processes;
  bool partitioned;
  std::uint64_t seed;
};

class CacheShadow : public ::testing::TestWithParam<ShadowCase> {};

TEST_P(CacheShadow, AgreesWithReferenceOnRandomStreams) {
  const ShadowCase param = GetParam();
  const CacheGeometry g{param.sets, param.ways, 64};

  std::vector<std::uint32_t> quotas;
  if (param.partitioned) {
    // Uneven but feasible split of the ways.
    std::uint32_t rest = param.ways;
    for (std::uint32_t p = 0; p < param.processes; ++p) {
      const std::uint32_t q =
          p + 1 == param.processes
              ? rest
              : std::max(1u, param.ways / (2 * param.processes) + p);
      quotas.push_back(std::min(q, rest));
      rest -= quotas.back();
    }
  }

  SharedCache cache(g, false, param.processes);
  if (param.partitioned) cache.set_partition(quotas);
  ReferenceCache reference(g, quotas);

  Rng rng(param.seed);
  constexpr int kAccesses = 60000;
  for (int i = 0; i < kAccesses; ++i) {
    const auto pid =
        static_cast<ProcessId>(rng.uniform_index(param.processes));
    MemoryAccess a;
    a.set = static_cast<std::uint32_t>(rng.uniform_index(param.sets));
    // Small per-process line universe so reuse is frequent.
    a.line = rng.uniform_index(3ull * param.ways);
    const bool hit_fast = cache.access(a, pid);
    const bool hit_ref = reference.access(a, pid);
    ASSERT_EQ(hit_fast, hit_ref) << "divergence at access " << i;
  }
  for (ProcessId pid = 0; pid < param.processes; ++pid)
    EXPECT_DOUBLE_EQ(cache.occupancy_ways(pid),
                     reference.occupancy_ways(pid))
        << "pid " << pid;
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheShadow,
    ::testing::Values(ShadowCase{4, 4, 1, false, 1},
                      ShadowCase{8, 8, 2, false, 2},
                      ShadowCase{16, 16, 3, false, 3},
                      ShadowCase{2, 8, 4, false, 4},
                      ShadowCase{8, 8, 2, true, 5},
                      ShadowCase{16, 16, 3, true, 6},
                      ShadowCase{4, 12, 4, true, 7}),
    [](const ::testing::TestParamInfo<ShadowCase>& info) {
      const ShadowCase& c = info.param;
      std::string name = "s";
      name += std::to_string(c.sets);
      name += 'w';
      name += std::to_string(c.ways);
      name += 'p';
      name += std::to_string(c.processes);
      name += c.partitioned ? "_part" : "_lru";
      return name;
    });

}  // namespace
}  // namespace repro::sim
