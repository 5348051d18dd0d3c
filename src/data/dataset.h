// In-memory labeled dataset used by clients and the server evaluator.
//
// Features are stored as one contiguous tensor with the sample dimension
// first ([N, C, H, W] for image-like data, [N, D] for flat features), so a
// mini-batch is a contiguous copy.

#ifndef FEDMIGR_DATA_DATASET_H_
#define FEDMIGR_DATA_DATASET_H_

#include <vector>

#include "nn/tensor.h"
#include "util/rng.h"

namespace fedmigr::data {

class Dataset {
 public:
  Dataset() = default;
  // `features` must have the sample dimension first and one label per sample.
  Dataset(nn::Tensor features, std::vector<int> labels, int num_classes);

  int size() const { return static_cast<int>(labels_.size()); }
  int num_classes() const { return num_classes_; }
  const nn::Tensor& features() const { return features_; }
  const std::vector<int>& labels() const { return labels_; }
  int label(int i) const { return labels_[static_cast<size_t>(i)]; }

  // Shape of one sample (the feature shape without the leading N).
  nn::Shape sample_shape() const;
  // Elements per sample.
  int64_t sample_size() const;

  // Gathers the given samples into a batch tensor [B, ...] plus labels.
  void Gather(const std::vector<int>& indices, nn::Tensor* batch,
              std::vector<int>* batch_labels) const;

 private:
  nn::Tensor features_;
  std::vector<int> labels_;
  int num_classes_ = 0;
};

// Iterates a dataset (optionally restricted to an index list) in shuffled
// mini-batches. One pass over all samples is one local epoch.
class BatchIterator {
 public:
  // `indices` may be empty, meaning "all samples". The iterator keeps a
  // pointer to `dataset`; the dataset must outlive it.
  BatchIterator(const Dataset* dataset, std::vector<int> indices,
                int batch_size, util::Rng* rng);

  // Fills the next mini-batch. Returns false (and leaves outputs untouched)
  // once the epoch is exhausted; Reset() reshuffles and starts a new epoch.
  bool Next(nn::Tensor* batch, std::vector<int>* labels);
  void Reset();

  int num_samples() const { return static_cast<int>(indices_.size()); }
  int batch_size() const { return batch_size_; }

 private:
  const Dataset* dataset_;
  std::vector<int> indices_;
  int batch_size_;
  util::Rng* rng_;
  size_t cursor_ = 0;
};

}  // namespace fedmigr::data

#endif  // FEDMIGR_DATA_DATASET_H_
