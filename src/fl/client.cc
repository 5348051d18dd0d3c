#include "fl/client.h"

#include "data/distribution.h"
#include "nn/loss.h"
#include "nn/serialize.h"
#include "util/logging.h"

namespace fedmigr::fl {

Client::Client(int id, const data::Dataset* dataset, std::vector<int> indices,
               double learning_rate, double momentum, uint64_t seed)
    : id_(id),
      dataset_(dataset),
      indices_(std::move(indices)),
      optimizer_(learning_rate, momentum),
      rng_(seed) {
  FEDMIGR_CHECK(dataset_ != nullptr);
  label_distribution_ = data::LabelDistribution(*dataset_, indices_);
}

nn::Sequential& Client::mutable_model() {
  FEDMIGR_CHECK(model_ != nullptr);
  if (!owns_model_) {
    model_ = ModelStore::Clone(*model_);
    owns_model_ = true;
  }
  return *model_;
}

void Client::SetModel(ModelRef model) {
  FEDMIGR_CHECK(model != nullptr);
  // Constness is a sharing convention, not storage: the block is only ever
  // written through mutable_model(), which clones unless owns_model_.
  model_ = std::const_pointer_cast<nn::Sequential>(std::move(model));
  owns_model_ = false;
}

ModelRef Client::share_model() {
  if (model_ == nullptr) return nullptr;
  owns_model_ = false;
  return model_;
}

void Client::ReclaimModel() {
  if (model_ != nullptr && model_.use_count() == 1) owns_model_ = true;
}

void Client::ReleaseBuffers() {
  if (owns_model_ && model_.use_count() == 1) model_->ReleaseBuffers();
}

void Client::SetProximalReference(FlatRef reference) {
  proximal_reference_ = std::move(reference);
}

template <class Ar>
util::Status Client::Visit(Ar& ar, const ModelRef& aggregate,
                           const FlatRef& aggregate_flat) {
  int32_t id = id_;
  uint64_t samples = indices_.size();
  ar.Io(id);
  ar.Io(samples);
  ar.Check(id == id_ && samples == indices_.size(),
           "client fingerprint mismatch");
  uint8_t flags = 0;
  if (model_ == nullptr) {
    flags |= kNoModel;
  } else if (aggregate != nullptr && model_ == aggregate) {
    flags |= kModelAliased;
  }
  if (proximal_reference_ != nullptr && aggregate_flat != nullptr &&
      proximal_reference_ == aggregate_flat) {
    flags |= kProximalAliased;
  }
  ar.Io(flags);
  if (!ar.ok()) return ar.status();
  if constexpr (Ar::kLoading) {
    if (flags & kNoModel) {
      model_.reset();
      owns_model_ = false;
    } else if (flags & kModelAliased) {
      if (aggregate == nullptr) {
        ar.Fail(util::Status::DataLoss(
            "client aliases the aggregate block but none was restored"));
        return ar.status();
      }
      model_ = std::const_pointer_cast<nn::Sequential>(aggregate);
      owns_model_ = false;
    } else if (model_ == nullptr || !owns_model_) {
      // Inline payload: materialize a private block shaped like the replica
      // we already hold (or the aggregate when restoring a lazy client).
      const nn::Sequential* shape =
          model_ != nullptr ? model_.get() : aggregate.get();
      if (shape == nullptr) {
        ar.Fail(util::Status::DataLoss(
            "client carries inline parameters but no block shape is "
            "available"));
        return ar.status();
      }
      model_ = ModelStore::Clone(*shape);
      owns_model_ = true;
    }
  }
  if (ar.Present(!(flags & (kModelAliased | kNoModel)))) {
    nn::IoParams(ar, model_.get());
  }
  ar.Io(optimizer_);
  ar.Check([&] { return model_ == nullptr || optimizer_.FitsModel(*model_); },
           "client momentum does not match its model");
  ar.Io(rng_);
  if (ar.Present(!(flags & kProximalAliased))) {
    if constexpr (Ar::kLoading) {
      std::vector<float> proximal;
      ar.Io(proximal);
      if (ar.ok()) {
        proximal_reference_ =
            std::make_shared<const std::vector<float>>(std::move(proximal));
      }
    } else {
      const std::vector<float> none;
      ar.Io(proximal_reference_ != nullptr ? *proximal_reference_ : none);
    }
  } else if constexpr (Ar::kLoading) {
    if (aggregate_flat == nullptr) {
      ar.Fail(util::Status::DataLoss(
          "client aliases the flattened aggregate but none was restored"));
    } else if (ar.ok()) {
      proximal_reference_ = aggregate_flat;
    }
  }
  return ar.status();
}

template util::Status Client::Visit(util::ByteWriter&, const ModelRef&,
                                    const FlatRef&);
template util::Status Client::Visit(util::ByteReader&, const ModelRef&,
                                    const FlatRef&);
template util::Status Client::Visit(util::SchemaDigest&, const ModelRef&,
                                    const FlatRef&);

LocalUpdateResult Client::LocalUpdate(const LocalUpdateOptions& options) {
  LocalUpdateResult result;
  if (indices_.empty()) return result;
  nn::Sequential& model = mutable_model();
  const std::vector<float>* proximal =
      proximal_reference_ != nullptr ? proximal_reference_.get() : nullptr;
  data::BatchIterator batches(dataset_, indices_, options.batch_size, &rng_);
  double loss_sum = 0.0;
  int batch_count = 0;
  for (int epoch = 0; epoch < options.epochs; ++epoch) {
    batches.Reset();
    nn::Tensor batch;
    std::vector<int> labels;
    while (batches.Next(&batch, &labels)) {
      model.ZeroGrads();
      const nn::Tensor logits = model.Forward(batch, /*training=*/true);
      nn::LossResult loss = nn::SoftmaxCrossEntropy(logits, labels);
      model.BackwardParams(loss.grad_logits);
      if (options.fedprox_mu > 0.0 && proximal != nullptr &&
          !proximal->empty()) {
        // Proximal term: grad += μ (w - w_ref).
        auto params = model.Params();
        auto grads = model.Grads();
        size_t offset = 0;
        const float mu = static_cast<float>(options.fedprox_mu);
        for (size_t p = 0; p < params.size(); ++p) {
          for (int64_t j = 0; j < params[p]->size(); ++j) {
            (*grads[p])[j] += mu * ((*params[p])[j] -
                                    (*proximal)[offset + j]);
          }
          offset += static_cast<size_t>(params[p]->size());
        }
      }
      optimizer_.Step(&model);
      loss_sum += loss.loss;
      ++batch_count;
      result.samples_processed += static_cast<int64_t>(labels.size());
    }
  }
  result.mean_loss = batch_count > 0 ? loss_sum / batch_count : 0.0;
  return result;
}

}  // namespace fedmigr::fl
