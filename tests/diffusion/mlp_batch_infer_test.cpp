// Concurrency suite for the MLP denoiser's stateless inference path.
//
// Lives in its own binary (name contains "batch") so the ThreadSanitizer
// build exercises it: ctest -R 'thread_pool|batch|obs_stress'. The claims
// locked in here: MlpDenoiser::thread_safe_inference() is true, concurrent
// predict_x0 / predict_x0_pixel calls on one instance are race-free and
// bit-identical to serial evaluation, and BatchSampler / evaluate_hybrid_loss
// actually fan out for the MLP with unchanged results.

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "diffusion/batch_sampler.h"
#include "diffusion/mlp_denoiser.h"
#include "diffusion/trainer.h"
#include "diffusion/transition.h"
#include "util/thread_pool.h"

namespace cp::diffusion {
namespace {

squish::Topology stripes(int n, int period) {
  squish::Topology t(n, n);
  for (int r = 0; r < n; ++r) {
    for (int c = 0; c < n; ++c) t.set(r, c, (c / period) % 2);
  }
  return t;
}

TEST(MlpBatchInferTest, AdvertisesThreadSafeInference) {
  const NoiseSchedule s{ScheduleConfig{}};
  util::Rng rng(1);
  const MlpDenoiser d(s, MlpConfig{2, 16, 2}, rng);
  EXPECT_TRUE(d.thread_safe_inference());
  const DiffusionSampler sampler(s, d);
  EXPECT_TRUE(sampler.thread_safe());
}

TEST(MlpBatchInferTest, ConcurrentPredictX0MatchesSerialBitExactly) {
  const NoiseSchedule s{ScheduleConfig{}};
  util::Rng rng(2);
  const MlpDenoiser d(s, MlpConfig{2, 32, 2}, rng);

  // Distinct (grid, step, condition) work items, evaluated serially first.
  std::vector<squish::Topology> grids;
  for (int p = 2; p <= 5; ++p) grids.push_back(stripes(16, p));
  struct Item {
    int grid, k, cond;
  };
  std::vector<Item> items;
  for (int g = 0; g < static_cast<int>(grids.size()); ++g) {
    for (int k : {1, 17, 90}) {
      for (int cond : {0, 1}) items.push_back({g, k, cond});
    }
  }
  std::vector<ProbGrid> serial(items.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    d.predict_x0(grids[static_cast<std::size_t>(items[i].grid)], items[i].k, items[i].cond,
                 serial[i]);
  }

  // Same work spread over 4 raw threads hammering one denoiser instance.
  std::vector<ProbGrid> parallel(items.size());
  const int kThreads = 4;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < items.size(); i += kThreads) {
        d.predict_x0(grids[static_cast<std::size_t>(items[i].grid)], items[i].k,
                     items[i].cond, parallel[i]);
      }
    });
  }
  for (auto& w : workers) w.join();

  for (std::size_t i = 0; i < items.size(); ++i) {
    ASSERT_EQ(serial[i].size(), parallel[i].size());
    for (std::size_t j = 0; j < serial[i].size(); ++j) {
      ASSERT_EQ(serial[i][j], parallel[i][j]) << "item " << i << " pixel " << j;
    }
  }
}

TEST(MlpBatchInferTest, ConcurrentPixelPredictionsMatchSerial) {
  const NoiseSchedule s{ScheduleConfig{}};
  util::Rng rng(3);
  const MlpDenoiser d(s, MlpConfig{1, 16, 1}, rng);
  const squish::Topology x = stripes(12, 3);

  std::vector<float> serial(12 * 12);
  for (int r = 0; r < 12; ++r) {
    for (int c = 0; c < 12; ++c) serial[static_cast<std::size_t>(r) * 12 + c] =
        d.predict_x0_pixel(x, r, c, 40, 0);
  }

  std::vector<float> parallel(serial.size());
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < parallel.size(); i += 3) {
        const int r = static_cast<int>(i) / 12;
        const int c = static_cast<int>(i) % 12;
        parallel[i] = d.predict_x0_pixel(x, r, c, 40, 0);
      }
    });
  }
  for (auto& w : workers) w.join();
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i], parallel[i]) << "pixel " << i;
  }
}

TEST(MlpBatchInferTest, BatchSamplerFansOutForMlpWithBitIdenticalOutput) {
  const NoiseSchedule s{ScheduleConfig{}};
  util::Rng rng(4);
  const MlpDenoiser d(s, MlpConfig{1, 16, 1}, rng);
  const DiffusionSampler sampler(s, d);

  SampleConfig cfg;
  cfg.rows = 12;
  cfg.cols = 12;
  cfg.sample_steps = 5;
  cfg.polish_rounds = 1;
  const int count = 8;

  const BatchSampler serial(sampler, nullptr);
  EXPECT_FALSE(serial.parallel());
  const auto a = serial.sample_batch(cfg, count, util::Rng(77));

  util::ThreadPool pool(4);
  const BatchSampler fanned(sampler, &pool);
  // The whole point of the stateless infer path: the MLP no longer forces
  // the silent serial fallback.
  EXPECT_TRUE(fanned.parallel());
  const auto b = fanned.sample_batch(cfg, count, util::Rng(77));

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << "sample " << i << " differs between serial and 4 threads";
  }
}

TEST(MlpBatchInferTest, RowQueryMatchesPixelQueryBitExactly) {
  // predict_x0_row is the batched twin of predict_x0_pixel — same features,
  // same kernels, rows of the GEMM are independent, so every column must
  // come back bit-identical on both precision tiers. Exercise interior rows
  // (plane gather) and both border rows (mirrored per-pixel loads).
  const NoiseSchedule s{ScheduleConfig{}};
  const squish::Topology x = stripes(14, 3);
  std::vector<float> row(14);
  for (const bool quantized : {false, true}) {
    util::Rng rng(6);  // same seed: the two tiers share their weights
    const MlpDenoiser d(s, MlpConfig{2, 24, 2, quantized}, rng);
    for (int r : {0, 1, 7, 13}) {
      d.predict_x0_row(x, r, 40, 1, row.data());
      for (int c = 0; c < 14; ++c) {
        ASSERT_EQ(row[static_cast<std::size_t>(c)], d.predict_x0_pixel(x, r, c, 40, 1))
            << (quantized ? "int8" : "fp32") << " row " << r << " col " << c;
      }
    }
  }
}

TEST(MlpBatchInferTest, ConcurrentInt8PredictionsMatchSerial) {
  // The quantized pack cache lives in the thread-local workspace like the
  // packed fp32 weights, so concurrent int8 queries must be race-free and
  // bit-identical to serial evaluation (TSAN covers the race half).
  const NoiseSchedule s{ScheduleConfig{}};
  util::Rng rng(7);
  const MlpDenoiser d(s, MlpConfig{1, 16, 1, /*quantized=*/true}, rng);
  const squish::Topology x = stripes(12, 3);

  std::vector<float> serial(12 * 12);
  for (int r = 0; r < 12; ++r) {
    for (int c = 0; c < 12; ++c) {
      serial[static_cast<std::size_t>(r) * 12 + c] = d.predict_x0_pixel(x, r, c, 40, 0);
    }
  }

  std::vector<float> parallel(serial.size());
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&, t] {
      for (std::size_t i = static_cast<std::size_t>(t); i < parallel.size(); i += 3) {
        const int r = static_cast<int>(i) / 12;
        const int c = static_cast<int>(i) % 12;
        parallel[i] = d.predict_x0_pixel(x, r, c, 40, 0);
      }
    });
  }
  for (auto& w : workers) w.join();
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial[i], parallel[i]) << "pixel " << i;
  }
}

TEST(MlpBatchInferTest, HybridLossEvaluationThreadCountInvariant) {
  const NoiseSchedule s{ScheduleConfig{}};
  util::Rng rng(5);
  const MlpDenoiser d(s, MlpConfig{1, 16, 1}, rng);
  std::vector<std::vector<squish::Topology>> per_class(1);
  for (int p = 2; p <= 4; ++p) per_class[0].push_back(stripes(16, p));

  const double serial = evaluate_hybrid_loss(d, s, per_class, 1e-3f, 12, 99, 1);
  const double fanned = evaluate_hybrid_loss(d, s, per_class, 1e-3f, 12, 99, 4);
  EXPECT_EQ(serial, fanned);
}

}  // namespace
}  // namespace cp::diffusion
