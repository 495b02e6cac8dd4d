// FL client: local training wrapped by defense middleware.
//
// Per round (paper §2.1 + Algorithm 1's host process):
//   1. receive_global(): the defense installs the global model — the
//      default installs it verbatim, DINAR personalizes;
//   2. train_round(): local epochs with the client's optimizer;
//   3. the defense's before_upload() transforms the outgoing parameters
//      (obfuscation / noise / compression / masking);
//   4. the update message is produced for the transport.
#pragma once

#include <memory>

#include "data/dataset.h"
#include "fl/defense.h"
#include "fl/message.h"
#include "fl/trainer.h"
#include "util/timer.h"

namespace dinar::fl {

class FlClient {
 public:
  FlClient(int id, data::Dataset train_data, nn::Model model,
           std::unique_ptr<opt::Optimizer> optimizer,
           std::unique_ptr<ClientDefense> defense, TrainConfig train_config, Rng rng);

  int id() const { return id_; }
  // Round of the most recently installed global model.
  std::int64_t round() const { return round_; }
  std::int64_t num_samples() const { return train_data_.size(); }
  const data::Dataset& train_data() const { return train_data_; }
  // The personalized model the client would use for predictions.
  nn::Model& model() { return model_; }
  ClientDefense& defense() { return *defense_; }
  const ClientDefense& defense() const { return *defense_; }

  // Installs the shared execution context on the client's model so local
  // training uses the blocked parallel kernels. The context must outlive
  // the client; pass nullptr to fall back to sequential kernels.
  void set_execution_context(const ExecutionContext* exec) {
    model_.set_execution_context(exec);
  }

  // Installs the update-kind wire codec (DESIGN.md §14). When it is sparse
  // the client keeps each round's decoded broadcast as the delta reference
  // its uploads are coded against. Set once, before the first round.
  void set_wire_codec(const KindCodec& update_codec) { update_codec_ = update_codec; }
  const KindCodec& wire_codec() const { return update_codec_; }

  void receive_global(const GlobalModelMsg& msg);

  // Local training + defense; returns the update to upload.
  ModelUpdateMsg train_round();

  // Serializes an update under the installed codec, supplying the retained
  // broadcast reference for sparse runs. With the default codec this is
  // update.serialize(): one dense f32 run per index entry.
  std::vector<std::uint8_t> serialize_update(const ModelUpdateMsg& update) const;

  TrainStats last_train_stats() const { return last_stats_; }
  // Table 3 client-side metrics.
  const CumulativeTimer& train_timer() const { return train_timer_; }
  const CumulativeTimer& defense_timer() const { return defense_timer_; }

  // -- durable-state serde --------------------------------------------------
  // Everything that carries across rounds: the personalized model, the
  // sequential training RNG stream, the round counter, the last training
  // stats, and the defense's private state. Optimizer accumulators are
  // deliberately absent — Algorithm 1 resets them at every round start, so
  // they hold no cross-round information. Wall-clock timers are also
  // excluded (measurement, not state). A restored client continues
  // bit-identically to the uninterrupted one.
  void save_state(BinaryWriter& w) const;
  void restore_state(BinaryReader& r);

 private:
  int id_;
  data::Dataset train_data_;
  nn::Model model_;
  std::unique_ptr<opt::Optimizer> optimizer_;
  std::unique_ptr<ClientDefense> defense_;
  TrainConfig train_config_;
  Rng rng_;
  std::int64_t round_ = 0;
  KindCodec update_codec_;
  // The decoded broadcast of the current round, kept only when the update
  // codec is sparse. Within-round state: never persisted (recovery re-runs
  // the round from its broadcast), refreshed by every receive_global().
  nn::FlatParams upload_reference_;
  bool has_upload_reference_ = false;
  TrainStats last_stats_;
  CumulativeTimer train_timer_;
  CumulativeTimer defense_timer_;
};

}  // namespace dinar::fl
