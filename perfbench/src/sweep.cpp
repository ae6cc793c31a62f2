// sweep: the query path, closed loop. One client calls predict_batch on
// fixed-size batches of random co-schedules of the eight suite
// processes, against an engine with default options and a pool of
// nproc workers; the next batch goes out when the previous returns.
#include <algorithm>
#include <span>

#include "bench.hpp"

namespace perfbench {

using namespace repro;

Result run_sweep(const RunOptions& opt) {
  Result r;
  const Inputs in = make_inputs(opt.seed);
  const std::size_t pool_size = opt.tiny ? 128 : 4096;
  // 128 per batch: 50–60 batches a second on a 4-core host.
  const std::size_t batch = opt.tiny ? 16 : 128;
  const std::vector<engine::CoScheduleQuery> pool =
      make_sweep_queries(in, opt.seed, pool_size);
  // Two candidates of every batch are re-priced serially for parity.
  const std::vector<std::size_t> parity_pick =
      seeded_sample(opt.seed, 1, batch, 2 * (pool_size / batch));

  const PooledSetup setup = pooled_set_up(in, opt.threads);
  const engine::ModelEngine& eng = *setup.engine;
  // A sample every 16 batches: about 100 in a 30 s run.
  SetupSampler setups(in, opt.threads, opt.tiny ? 1 : 16);
  setups.sample();
  const engine::ModelEngine::CacheStats cache0 = eng.cache_stats();

  Check& pred_check = r.check("prediction_valid");
  Check& parity = r.check("batch_matches_serial");
  Series latency;  // seconds per predict_batch call
  // Throughput per full pass over the pool (identical work every
  // pass); candidates_per_s is their median.
  Series pass_rate;
  double pass_s = 0.0;
  std::uint64_t pass_candidates = 0;
  std::uint64_t candidates = 0;
  std::size_t cursor = 0;
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(opt.seconds *
                                                   (opt.trace ? 0.4 : 1.0));
  std::size_t calls = 0;
  while (Clock::now() < deadline) {
    if (cursor + batch > pool.size()) {
      cursor = 0;
      pass_rate.add(static_cast<double>(pass_candidates) / pass_s);
      pass_s = 0.0;
      pass_candidates = 0;
    }
    const std::span<const engine::CoScheduleQuery> qs(pool.data() + cursor,
                                                      batch);
    ++r.attempted;
    bool ok = true;
    try {
      const auto t0 = Clock::now();
      const std::vector<engine::SystemPrediction> out = eng.predict_batch(qs);
      const double dt = seconds_since(t0);
      latency.add(dt);
      pass_s += dt;
      pass_candidates += out.size();
      candidates += out.size();
      for (std::size_t i = 0; i < out.size(); ++i) {
        const std::string why = check_prediction(eng, qs[i], out[i]);
        pred_check.expect(why.empty(), why);
        ok = ok && why.empty();
      }
      for (std::size_t k = 0; k < 2; ++k) {
        const std::size_t i = parity_pick[(2 * calls + k) % parity_pick.size()];
        const bool same = bit_identical(out[i], eng.predict(qs[i]));
        parity.expect(same, "predict_batch result differs from serial predict");
        ok = ok && same;
      }
    } catch (const std::exception& e) {
      pred_check.expect(false, e.what());
      ok = false;
    }
    if (!ok) ++r.failed;
    cursor += batch;
    ++calls;
    setups.tick();
  }

  if (!opt.trace) {
    r.metric("setup_s", setups.times().median(), "s", setups.times().size(),
             50.0);
    // A run too short for three whole passes falls back to the mean.
    r.metric("candidates_per_s",
             pass_rate.size() >= 3 ? pass_rate.median()
                                   : static_cast<double>(candidates) /
                                         latency.sum(),
             "1/s", candidates, pass_rate.size() >= 3 ? 50.0 : 0.0);
    // Segments of 150 batches (about 3 s): a burst of host interference
    // in one stretch of the run moves one segment's numbers, not the
    // medians. Each segment's tail is its p90.
    r.latency("query_ms", latency, 1e3, "ms", 150);
  } else {
    Tracer tracer;
    // Parallel efficiency on a seeded sample of batches: Σ serial
    // candidate time ÷ (threads × batch wall).
    double serial = 0.0, wall = 0.0;
    const std::size_t nb = opt.tiny ? 2 : 16;
    for (std::size_t b : seeded_sample(opt.seed, 2, pool.size() / batch, nb)) {
      const std::span<const engine::CoScheduleQuery> qs(
          pool.data() + b * batch, batch);
      const auto t0 = Clock::now();
      (void)eng.predict_batch(qs);
      wall += seconds_since(t0);
      for (const engine::CoScheduleQuery& q : qs) {
        const auto t1 = Clock::now();
        (void)eng.predict(q);
        serial += seconds_since(t1);
      }
    }
    r.metric("engine.predict_batch.parallel_eff",
             wall > 0.0 ? serial / (static_cast<double>(opt.threads) * wall)
                        : 0.0,
             "ratio", nb);
    const engine::ModelEngine::CacheStats c = eng.cache_stats();
    const double hits = static_cast<double>(c.hits - cache0.hits);
    const double base = hits + static_cast<double>(c.misses - cache0.misses);
    r.metric("engine.artifact.hit_ratio", base > 0.0 ? hits / base : 0.0,
             "ratio", static_cast<std::size_t>(base));

    QueryTracer qt(eng, tracer);
    std::vector<engine::CoScheduleQuery> sample;
    for (std::size_t i :
         seeded_sample(opt.seed, 3, pool.size(), opt.tiny ? 64 : 3000))
      sample.push_back(pool[i]);
    qt.reprice(sample);
    qt.report(r);
    r.check("trace_reprice_parity")
        .expect(qt.mismatches() == 0,
                "traced kernel re-pricing differs from ModelEngine::predict");
  }
  r.note("batch_size", std::to_string(batch));
  r.note("candidate_pool", std::to_string(pool.size()));
  r.note("calls", std::to_string(calls));
  return r;
}

}  // namespace perfbench
