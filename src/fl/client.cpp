#include "fl/client.h"

#include "util/error.h"

namespace dinar::fl {

FlClient::FlClient(int id, data::Dataset train_data, nn::Model model,
                   std::unique_ptr<opt::Optimizer> optimizer,
                   std::unique_ptr<ClientDefense> defense, TrainConfig train_config,
                   Rng rng)
    : id_(id), train_data_(std::move(train_data)), model_(std::move(model)),
      optimizer_(std::move(optimizer)), defense_(std::move(defense)),
      train_config_(train_config), rng_(rng) {
  DINAR_CHECK(!train_data_.empty(), "client " << id << " has no training data");
  DINAR_CHECK(optimizer_ != nullptr && defense_ != nullptr,
              "client needs an optimizer and a defense");
  defense_->initialize(model_, id_);
}

void FlClient::receive_global(const GlobalModelMsg& msg) {
  // A delayed or replayed broadcast from an earlier round must not roll the
  // client back; re-delivery of the current round (protocol retries) is fine.
  DINAR_CHECK(msg.round >= round_, "client " << id_ << ": stale global model for round "
                                             << msg.round << ", already at round "
                                             << round_);
  round_ = msg.round;
  // Sparse uploads code deltas against the broadcast AS DECODED — under a
  // lossy broadcast codec that differs from the server's raw model, but it
  // is bit-identical to the server's own decode of the same bytes, which
  // is what keeps both ends of a sparse run in agreement.
  if (update_codec_.topk_fraction < 1.0) {
    upload_reference_ = msg.params;
    has_upload_reference_ = true;
  }
  ScopedTimer timing(defense_timer_);
  defense_->on_download(model_, msg.params);
}

std::vector<std::uint8_t> FlClient::serialize_update(
    const ModelUpdateMsg& update) const {
  return update.serialize(update_codec_,
                          has_upload_reference_ ? &upload_reference_ : nullptr);
}

ModelUpdateMsg FlClient::train_round() {
  {
    ScopedTimer timing(train_timer_);
    last_stats_ = train_local(model_, train_data_, *optimizer_, train_config_, rng_);
  }

  ModelUpdateMsg msg;
  msg.client_id = id_;
  msg.round = round_;
  msg.num_samples = num_samples();
  {
    ScopedTimer timing(defense_timer_);
    msg.params = defense_->before_upload(model_, model_.parameters(), num_samples(),
                                         msg.pre_weighted);
  }
  return msg;
}

void FlClient::save_state(BinaryWriter& w) const {
  w.write_i64(round_);
  w.write_f64(last_stats_.mean_loss);
  w.write_f64(last_stats_.accuracy);
  w.write_i64(last_stats_.steps);
  rng_.save_state(w);
  nn::write_flat_params(w, const_cast<nn::Model&>(model_).parameters());
  w.write_string(defense_->name());
  defense_->save_state(w);
}

void FlClient::restore_state(BinaryReader& r) {
  round_ = r.read_i64();
  last_stats_.mean_loss = r.read_f64();
  last_stats_.accuracy = r.read_f64();
  last_stats_.steps = r.read_i64();
  rng_.restore_state(r);
  nn::read_flat_params_into(r, model_);
  const std::string defense_name = r.read_string();
  DINAR_CHECK(defense_name == defense_->name(),
              "client " << id_ << " state was saved with defense '" << defense_name
                        << "' but is restoring into '" << defense_->name()
                        << "' — reconstruct the simulation with the original "
                        << "defense bundle");
  defense_->restore_state(r);
}

}  // namespace dinar::fl
