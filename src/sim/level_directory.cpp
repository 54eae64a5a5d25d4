#include "sim/level_directory.h"

namespace rlb::sim {

LevelDirectory::LevelDirectory(int servers) : n_(servers) {
  RLB_REQUIRE(servers >= 1, "need at least one server");
  rec_.assign(n_, ServerRec{});
  by_level_.resize(n_);
  for (int s = 0; s < n_; ++s) {
    by_level_[s] = s;
    rec_[s].pos = s;
  }
  count_ = {static_cast<std::int32_t>(n_)};
  offset_ = {0};
  // All servers start idle, queued in server-index order.
  for (int s = 0; s < n_; ++s) {
    rec_[s].idle_next = s + 1 < n_ ? s + 1 : -1;
    rec_[s].idle_prev = s - 1;
  }
  idle_head_ = 0;
  idle_tail_ = n_ - 1;
}

void LevelDirectory::arm_racks(int racks) {
  RLB_REQUIRE(racks >= 1, "need at least one rack");
  RLB_REQUIRE(n_ % racks == 0, "servers must divide evenly into racks");
  RLB_REQUIRE(count_[0] == n_,
              "arm_racks requires the initial all-idle state");
  racks_ = racks;
  per_rack_ = n_ / racks;
  rack_next_.assign(n_, -1);
  rack_prev_.assign(n_, -1);
  rack_head_.assign(racks, -1);
  rack_tail_.assign(racks, -1);
  // Seed each rack's FIFO in server-index order, matching the global
  // I-queue's time-zero order restricted to the rack.
  for (int s = 0; s < n_; ++s) rack_idle_append(s);
}

int LevelDirectory::at(int level, int i) const {
  RLB_REQUIRE(i >= 0 && i < count_at(level), "level index out of range");
  return by_level_[offset_[level] + i];
}

}  // namespace rlb::sim
