#include "approx/micro_model.h"

#include <cmath>
#include <stdexcept>

#include "ml/activations.h"
#include "sim/random.h"

namespace esim::approx {

namespace {

std::unique_ptr<ml::SequenceModel> make_trunk(const MicroModel::Config& cfg) {
  sim::Rng rng{cfg.seed};
  return ml::make_sequence_model(cfg.trunk, PacketFeatures::kDim,
                                 cfg.hidden, cfg.layers, rng);
}

ml::Linear make_head(std::uint64_t seed, std::size_t hidden) {
  sim::Rng rng{seed};
  return ml::Linear{hidden, 1, rng};
}

constexpr const char* kHeadNames[] = {"drop", "latency"};

}  // namespace

MicroModel::MicroModel(const Config& config)
    : config_{config},
      trunk_{make_trunk(config)},
      drop_head_{make_head(config.seed + 101, config.hidden)},
      latency_head_{make_head(config.seed + 202, config.hidden)} {
  recompile();
}

MicroModel::MicroModel(const MicroModel& other)
    : config_{other.config_},
      trunk_{other.trunk_->clone()},
      drop_head_{other.drop_head_},
      latency_head_{other.latency_head_},
      norm_{other.norm_},
      norm_grad_{other.norm_grad_} {
  // Snapshot the copied weights (which also gives the copy a fresh,
  // reset recurrent state — streamed history never transfers).
  recompile();
}

MicroModel& MicroModel::operator=(const MicroModel& other) {
  if (this == &other) return *this;
  config_ = other.config_;
  trunk_ = other.trunk_->clone();
  drop_head_ = other.drop_head_;
  latency_head_ = other.latency_head_;
  norm_ = other.norm_;
  norm_grad_ = other.norm_grad_;
  ref_state_.reset();
  recompile();
  return *this;
}

void MicroModel::recompile() {
  const std::vector<ml::InferenceSession::HeadWeights> heads{
      {&drop_head_.weight(), &drop_head_.bias()},
      {&latency_head_.weight(), &latency_head_.bias()}};
  session_ = trunk_->make_inference_session(heads);
  // make_inference_session watches the trunk; optimizers over the whole
  // MicroModel (the trainer's setup, ml::load_parameters) or a single
  // head bump those versions instead, so watch them too — any write path
  // to the snapshotted weights must trip the staleness check.
  session_->watch_weight_source(*this);
  session_->watch_weight_source(drop_head_);
  session_->watch_weight_source(latency_head_);
}

void MicroModel::reset_state() {
  session_->reset_state();
  ref_state_.reset();
}

void MicroModel::set_latency_normalization(double mean_log_us,
                                           double std_log_us) {
  norm_.at(0, 0) = mean_log_us;
  norm_.at(0, 1) = std_log_us <= 0 ? 1.0 : std_log_us;
}

double MicroModel::denormalize_latency(double head_output) const {
  const double log_us = head_output * norm_.at(0, 1) + norm_.at(0, 0);
  return std::exp(log_us) * 1e-6;
}

double MicroModel::normalize_latency(double latency_seconds) const {
  const double us = std::max(latency_seconds * 1e6, 1e-3);
  return (std::log(us) - norm_.at(0, 0)) / norm_.at(0, 1);
}

MicroModel::Prediction MicroModel::predict(
    std::span<const double> features) {
  const std::span<const double> out = session_->predict(features);
  Prediction p;
  p.drop_probability = ml::sigmoid(out[0]);
  p.latency_seconds = denormalize_latency(out[1]);
  return p;
}

void MicroModel::reserve_batch(std::size_t max_n) {
  session_->reserve_batch(max_n);
}

std::size_t MicroModel::predict_batch(std::span<const double> features,
                                      std::span<Prediction> out) {
  const std::size_t n = features.size() / PacketFeatures::kDim;
  if (features.size() != n * PacketFeatures::kDim || out.size() < n) {
    throw std::invalid_argument(
        "MicroModel::predict_batch: feature/output size mismatch");
  }
  const std::span<const double> raw = session_->predict_batch(features, n);
  // Per packet the head outputs — and therefore sigmoid/de-normalization
  // inputs — are bit-identical to a predict() call at the same stream
  // position, so the Prediction structs match the sequential path
  // exactly.
  for (std::size_t t = 0; t < n; ++t) {
    out[t].drop_probability = ml::sigmoid(raw[t * 2]);
    out[t].latency_seconds = denormalize_latency(raw[t * 2 + 1]);
  }
  return n;
}

MicroModel::Prediction MicroModel::predict_reference(
    std::span<const double> features) {
  if (!ref_state_) ref_state_ = trunk_->make_state(1);
  ml::Tensor x{1, PacketFeatures::kDim,
               std::vector<double>(features.begin(), features.end())};
  const ml::Tensor h = trunk_->step(x, *ref_state_);
  const ml::Tensor drop_logit = drop_head_.forward(h);
  const ml::Tensor lat = latency_head_.forward(h);
  Prediction p;
  p.drop_probability = ml::sigmoid(drop_logit.at(0, 0));
  p.latency_seconds = denormalize_latency(lat.at(0, 0));
  return p;
}

std::vector<ml::Parameter> MicroModel::parameters() {
  std::vector<ml::Parameter> out;
  for (auto& p : trunk_->parameters()) {
    out.push_back({"trunk." + p.name, p.value, p.grad});
  }
  for (auto& p : drop_head_.parameters()) {
    out.push_back({std::string{kHeadNames[0]} + "." + p.name, p.value,
                   p.grad});
  }
  for (auto& p : latency_head_.parameters()) {
    out.push_back({std::string{kHeadNames[1]} + "." + p.name, p.value,
                   p.grad});
  }
  out.push_back({"norm", &norm_, &norm_grad_});
  return out;
}

}  // namespace esim::approx
