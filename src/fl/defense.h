// Privacy-defense middleware interfaces.
//
// The FL runtime defines the hook points; defenses are plugins:
//  - ClientDefense wraps a client's round: what happens when the global
//    model arrives (DINAR personalizes here) and what the client actually
//    uploads (DINAR obfuscates, LDP/WDP add noise, GC sparsifies, SA masks).
//  - ServerDefense wraps aggregation (CDP perturbs the aggregate here).
//
// This mirrors the paper's claim that DINAR is non-intrusive middleware:
// the FL loop below never special-cases any defense.
#pragma once

#include <memory>
#include <string>

#include "nn/model.h"
#include "util/serde.h"

namespace dinar::fl {

class ClientDefense {
 public:
  virtual ~ClientDefense() = default;

  virtual std::string name() const = 0;

  // -- durable-state serde --------------------------------------------------
  // Defenses that carry cross-round state (DINAR's stored private layers
  // and its obfuscation RNG) persist it here so a crash-recovered client
  // resumes bit-identically. Stateless defenses inherit the no-ops. The
  // durable store tags the bytes with name(), so a restore into a
  // different defense fails loudly instead of misparsing.
  virtual void save_state(BinaryWriter& /*w*/) const {}
  virtual void restore_state(BinaryReader& /*r*/) {}

  // True if before_upload() pre-weights every upload (sets pre_weighted):
  // the server must then sum the uploads exactly, so the simulation
  // rejects it with a lossy update codec, robust aggregation or sharding.
  virtual bool uploads_pre_weighted() const { return false; }

  // Invoked once before the first round, after the client's model exists.
  virtual void initialize(nn::Model& /*model*/, int /*client_id*/) {}

  // The global model arrived. Default behaviour installs it verbatim;
  // DINAR overrides to keep the client's private layer (personalization).
  virtual void on_download(nn::Model& model, const nn::FlatParams& global_params) {
    model.set_parameters(global_params);
  }

  // Local training finished; transform what gets uploaded. `params` is a
  // flat snapshot of the trained model; defenses mutate layer/arena spans
  // in place. Returns the payload parameters and may set `pre_weighted`
  // (see message.h).
  virtual nn::FlatParams before_upload(nn::Model& /*model*/, nn::FlatParams params,
                                       std::int64_t /*num_samples*/,
                                       bool& /*pre_weighted*/) {
    return params;
  }
};

class ServerDefense {
 public:
  virtual ~ServerDefense() = default;
  virtual std::string name() const = 0;

  // Aggregation produced `params`; mutate before broadcast (CDP noise).
  virtual void after_aggregate(nn::FlatParams& /*params*/) {}

  // Durable-state serde; see ClientDefense.
  virtual void save_state(BinaryWriter& /*w*/) const {}
  virtual void restore_state(BinaryReader& /*r*/) {}
};

// Pass-through defenses: the paper's "no defense" baseline.
class NoClientDefense final : public ClientDefense {
 public:
  std::string name() const override { return "none"; }
};

class NoServerDefense final : public ServerDefense {
 public:
  std::string name() const override { return "none"; }
};

}  // namespace dinar::fl
