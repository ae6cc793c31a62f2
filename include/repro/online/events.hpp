// The unified pipeline event log's vocabulary (ISSUE 6): profile and
// power revisions, tagged, in one globally-ordered sequence space.
// Split from pipeline.hpp so event consumers — `cmpmodel watch`, the
// online_profiler example, the benches — can name the types without
// pulling in the whole pipeline.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <variant>

#include "repro/engine/model_engine.hpp"
#include "repro/online/profile_builder.hpp"

namespace repro::online {

/// One profile revision as it flowed through the engine, plus the
/// re-solved operating point (when a query was active). Carried as a
/// PipelineEvent payload; its position in the unified log is the
/// wrapper's seq.
struct RevisionEvent {
  Seconds time = 0.0;                  // window end that triggered it
  engine::ProcessHandle handle = 0;
  std::uint64_t revision = 0;
  RevisionQuality quality;             // the fit behind this revision
  bool resolved = false;               // a re-solve followed
  bool degraded = false;               // ...which fell back to last-good
  int solver_iterations = 0;           // of that re-solve
  int solver_fallbacks = 0;            // its dies re-solved by bisection
  engine::SystemPrediction prediction; // valid when resolved
};

/// One power-model refit attempt as it flowed through the pipeline —
/// applied revisions and gate rejections both, so watchers can see the
/// gate working. Carried as a PipelineEvent payload in the same
/// unified, globally-ordered log as profile revisions.
struct PowerRevisionEvent {
  Seconds time = 0.0;            // window that triggered the attempt
  bool applied = false;          // accepted by the gate AND the engine
  std::string reason;            // rejection cause; empty when applied
  bool rank_deficient = false;   // conditioning guard fired
  std::uint64_t revision = 0;    // engine power_revision() after apply
  double r2 = 0.0;               // candidate fit quality
  double accuracy = 0.0;
  double candidate_err_pct = 0.0;  // candidate MAPE over the window
  double incumbent_err_pct = 0.0;  // incumbent MAPE over the same rows
  Watts idle = 0.0;                // candidate intercept
  std::array<double, 5> coefficients{};
  std::size_t window_samples = 0;
};

/// Cursor into the unified event log: a global sequence number,
/// monotonic from 0 across *both* event kinds, unaffected by
/// history-ring eviction. Poll events_since(cursor) with the last
/// seen seq + 1 (or 0 to start).
using EventCursor = std::uint64_t;

/// One entry of the unified event log: a profile revision or a power
/// refit attempt, tagged, in one global stream order.
struct PipelineEvent {
  EventCursor seq = 0;
  std::variant<RevisionEvent, PowerRevisionEvent> payload;

  bool is_profile() const {
    return std::holds_alternative<RevisionEvent>(payload);
  }
  bool is_power() const {
    return std::holds_alternative<PowerRevisionEvent>(payload);
  }
  const RevisionEvent& profile() const {
    return std::get<RevisionEvent>(payload);
  }
  const PowerRevisionEvent& power() const {
    return std::get<PowerRevisionEvent>(payload);
  }
  Seconds time() const {
    return is_profile() ? profile().time : power().time;
  }
};

}  // namespace repro::online
