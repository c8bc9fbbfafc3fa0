#include "dash/video.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/rng.h"

namespace mpdash {

Video::Video(std::string name, Duration chunk_duration, int chunk_count,
             std::vector<DataRate> level_bitrates, double vbr_spread,
             std::uint64_t seed)
    : name_(std::move(name)),
      chunk_duration_(chunk_duration),
      chunk_count_(chunk_count) {
  if (chunk_duration_ <= kDurationZero || chunk_count_ <= 0 ||
      level_bitrates.empty()) {
    throw std::invalid_argument("bad video parameters");
  }
  if (!std::is_sorted(level_bitrates.begin(), level_bitrates.end())) {
    throw std::invalid_argument("level bitrates must ascend");
  }
  Rng rng(seed);
  // Shared per-chunk complexity factor: a busy scene is bigger at *every*
  // level, which is how real VBR encodings behave.
  std::vector<double> complexity(static_cast<std::size_t>(chunk_count_));
  for (auto& c : complexity) {
    c = std::clamp(1.0 + vbr_spread * rng.normal(), 0.5, 1.8);
  }
  for (std::size_t l = 0; l < level_bitrates.size(); ++l) {
    levels_.push_back({static_cast<int>(l), level_bitrates[l]});
    std::vector<Bytes> sizes(static_cast<std::size_t>(chunk_count_));
    const double nominal =
        level_bitrates[l].bps() / 8.0 * to_seconds(chunk_duration_);
    for (int k = 0; k < chunk_count_; ++k) {
      sizes[static_cast<std::size_t>(k)] = std::max<Bytes>(
          1000,
          static_cast<Bytes>(nominal * complexity[static_cast<std::size_t>(k)]));
    }
    chunk_sizes_.push_back(std::move(sizes));
  }
}

Video::Video(std::string name, Duration chunk_duration, int chunk_count,
             std::vector<DataRate> level_bitrates,
             std::vector<std::vector<Bytes>> chunk_sizes)
    : name_(std::move(name)),
      chunk_duration_(chunk_duration),
      chunk_count_(chunk_count),
      chunk_sizes_(std::move(chunk_sizes)) {
  if (chunk_duration_ <= kDurationZero || chunk_count_ <= 0 ||
      level_bitrates.empty() || chunk_sizes_.size() != level_bitrates.size()) {
    throw std::invalid_argument("bad video parameters");
  }
  for (const auto& row : chunk_sizes_) {
    if (static_cast<int>(row.size()) != chunk_count_) {
      throw std::invalid_argument("chunk size row length mismatch");
    }
  }
  for (std::size_t l = 0; l < level_bitrates.size(); ++l) {
    levels_.push_back({static_cast<int>(l), level_bitrates[l]});
  }
}

Bytes Video::chunk_size(int level, int chunk) const {
  return chunk_sizes_.at(static_cast<std::size_t>(level))
      .at(static_cast<std::size_t>(chunk));
}

Bytes Video::nominal_chunk_size(int level) const {
  return static_cast<Bytes>(this->level(level).avg_bitrate.bps() / 8.0 *
                            to_seconds(chunk_duration_));
}

int Video::highest_level_not_above(DataRate rate) const {
  int best = 0;
  for (const auto& lv : levels_) {
    if (lv.avg_bitrate <= rate) best = lv.index;
  }
  return best;
}

namespace {

Video make_preset(const char* name, Duration chunk_duration,
                  std::initializer_list<double> mbps, std::uint64_t seed) {
  // A zero duration would divide by zero below, and a sub-millisecond one
  // asks for hundreds of millions of chunk sizes.
  if (chunk_duration < milliseconds(1)) {
    throw std::invalid_argument("chunk duration below 1 ms");
  }
  std::vector<DataRate> rates;
  for (double m : mbps) rates.push_back(DataRate::mbps(m));
  const int chunks = static_cast<int>(seconds(600.0) / chunk_duration);
  return Video(name, chunk_duration, chunks, std::move(rates),
               /*vbr_spread=*/0.12, seed);
}

}  // namespace

Video big_buck_bunny(Duration chunk_duration) {
  return make_preset("Big Buck Bunny", chunk_duration,
                     {0.58, 1.01, 1.47, 2.41, 3.94}, 42);
}

Video red_bull_playstreets(Duration chunk_duration) {
  return make_preset("Red Bull Playstreets", chunk_duration,
                     {0.50, 0.89, 1.50, 2.47, 3.99}, 43);
}

Video tears_of_steel(Duration chunk_duration) {
  return make_preset("Tears of Steel", chunk_duration,
                     {0.50, 0.81, 1.51, 2.42, 4.01}, 44);
}

Video tears_of_steel_hd(Duration chunk_duration) {
  return make_preset("Tears of Steel HD", chunk_duration,
                     {1.51, 2.42, 4.01, 6.03, 10.0}, 45);
}

}  // namespace mpdash
