#include "core/sparse_topic_kernel.h"

#include <algorithm>

namespace cold::core {

void LGammaTable::Build(double offset, int64_t max_n) {
  offset_ = offset;
  const int64_t entries = std::min(max_n + 1, kMaxEntries);
  table_.resize(static_cast<size_t>(std::max<int64_t>(entries, 0)));
  for (size_t n = 0; n < table_.size(); ++n) {
    table_[n] = cold::LGamma(static_cast<double>(n) + offset_);
  }
}

void LogCountTable::Build(double offset, int64_t max_n) {
  offset_ = offset;
  const int64_t entries = std::min(max_n + 1, LGammaTable::kMaxEntries);
  table_.resize(static_cast<size_t>(std::max<int64_t>(entries, 0)));
  for (size_t n = 0; n < table_.size(); ++n) {
    table_[n] = std::log(static_cast<double>(n) + offset_);
  }
}

void TopicAliasBank::Reset(int num_communities, int num_time_slices,
                           int num_topics, int rebuild_budget) {
  num_communities_ = num_communities;
  num_time_slices_ = num_time_slices;
  num_topics_ = num_topics;
  rebuild_budget_ = std::max(rebuild_budget, 1);
  const size_t n = static_cast<size_t>(num_communities) *
                   static_cast<size_t>(num_time_slices);
  rows_.resize(n);
  dirty_.assign(n, 1);
  updates_.assign(static_cast<size_t>(num_communities), 0);
}

void TopicAliasBank::InvalidateAll() {
  std::fill(dirty_.begin(), dirty_.end(), uint8_t{1});
  std::fill(updates_.begin(), updates_.end(), 0);
}

void TopicAliasBank::MarkCommunityDirty(int c) {
  const size_t begin = Index(c, 0);
  std::fill(dirty_.begin() + static_cast<ptrdiff_t>(begin),
            dirty_.begin() +
                static_cast<ptrdiff_t>(begin + static_cast<size_t>(num_time_slices_)),
            uint8_t{1});
  updates_[static_cast<size_t>(c)] = 0;
}

}  // namespace cold::core
