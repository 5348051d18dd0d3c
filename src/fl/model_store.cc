#include "fl/model_store.h"

#include "nn/serialize.h"

namespace fedmigr::fl {

const ModelRef& ModelStore::Publish(const nn::Sequential& aggregate) {
  aggregate_ = std::make_shared<const nn::Sequential>(aggregate);
  flat_ = std::make_shared<const std::vector<float>>(
      nn::FlattenParams(*aggregate_));
  parent_lineage_ = aggregate_lineage_;
  aggregate_lineage_ = next_lineage_id_++;
  return aggregate_;
}

std::shared_ptr<nn::Sequential> ModelStore::Clone(const nn::Sequential& model) {
  return std::make_shared<nn::Sequential>(model);
}

}  // namespace fedmigr::fl
