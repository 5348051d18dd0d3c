#include "data/dataset.h"

#include <cstring>
#include <numeric>

#include "util/logging.h"

namespace fedmigr::data {

Dataset::Dataset(nn::Tensor features, std::vector<int> labels,
                 int num_classes)
    : features_(std::move(features)),
      labels_(std::move(labels)),
      num_classes_(num_classes) {
  FEDMIGR_CHECK_GE(features_.ndim(), 2);
  FEDMIGR_CHECK_EQ(features_.dim(0), static_cast<int>(labels_.size()));
  FEDMIGR_CHECK_GT(num_classes_, 0);
  for (int label : labels_) {
    FEDMIGR_CHECK_GE(label, 0);
    FEDMIGR_CHECK_LT(label, num_classes_);
  }
}

nn::Shape Dataset::sample_shape() const {
  nn::Shape shape = features_.shape();
  shape.erase(shape.begin());
  return shape;
}

int64_t Dataset::sample_size() const { return nn::NumElements(sample_shape()); }

void Dataset::Gather(const std::vector<int>& indices, nn::Tensor* batch,
                     std::vector<int>* batch_labels) const {
  const int64_t stride = sample_size();
  nn::Shape batch_shape = features_.shape();
  batch_shape[0] = static_cast<int>(indices.size());
  *batch = nn::Tensor(batch_shape);
  batch_labels->resize(indices.size());
  for (size_t i = 0; i < indices.size(); ++i) {
    const int idx = indices[i];
    FEDMIGR_CHECK_GE(idx, 0);
    FEDMIGR_CHECK_LT(idx, size());
    std::memcpy(batch->data() + static_cast<int64_t>(i) * stride,
                features_.data() + static_cast<int64_t>(idx) * stride,
                static_cast<size_t>(stride) * sizeof(float));
    (*batch_labels)[i] = labels_[static_cast<size_t>(idx)];
  }
}

BatchIterator::BatchIterator(const Dataset* dataset, std::vector<int> indices,
                             int batch_size, util::Rng* rng)
    : dataset_(dataset),
      indices_(std::move(indices)),
      batch_size_(batch_size),
      rng_(rng) {
  FEDMIGR_CHECK(dataset_ != nullptr);
  FEDMIGR_CHECK_GT(batch_size_, 0);
  if (indices_.empty()) {
    indices_.resize(static_cast<size_t>(dataset_->size()));
    std::iota(indices_.begin(), indices_.end(), 0);
  }
  Reset();
}

bool BatchIterator::Next(nn::Tensor* batch, std::vector<int>* labels) {
  if (cursor_ >= indices_.size()) return false;
  const size_t end =
      std::min(cursor_ + static_cast<size_t>(batch_size_), indices_.size());
  const std::vector<int> batch_indices(indices_.begin() + cursor_,
                                       indices_.begin() + end);
  cursor_ = end;
  dataset_->Gather(batch_indices, batch, labels);
  return true;
}

void BatchIterator::Reset() {
  cursor_ = 0;
  if (rng_ != nullptr) rng_->Shuffle(indices_);
}

}  // namespace fedmigr::data
