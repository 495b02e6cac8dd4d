// FlatParams: the whole-model parameter space as one contiguous arena.
//
// DINAR's mechanism is layer-addressed model state — obfuscate layer p on
// upload, re-install the private layer on download, exclude it from outlier
// scoring — but a snapshot does not need to be a ragged list of tensors to
// be layer-addressed. FlatParams pairs a single contiguous float arena with
// an immutable LayerIndex describing where each parameter tensor lives
// inside it (name, layer id, offset, numel, shape, obfuscation tag). Every
// consumer on the round hot path — FedAvg, the robust aggregators, DP
// noise, SA masks, message serde — streams spans of the arena instead of
// walking tensor lists, so a round's exchange+aggregate path costs one
// arena allocation per snapshot and serialization is a header plus one
// contiguous payload write.
//
// Aliasing rules: the LayerIndex is shared (shared_ptr) and immutable; the
// arena is value-owned by each FlatParams, so copies are deep for data and
// shallow for layout. Spans returned by as_span()/entry_span()/layer_span()
// alias the arena and are invalidated by move/destruction, never by reads.
//
// Tensor-shaped input enters through FlatParams::from_tensors(). One
// layer-index header is the only parameter layout, with two bodies after
// it: the storage body below (index header + one contiguous f32 arena),
// which DFST snapshots, WAL records and client/defense state carry, and
// the message body of fl/wire_codec.h (index header + one coded run per
// entry), which every DFRM message carries.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "tensor/tensor.h"
#include "util/serde.h"

namespace dinar::nn {

// One parameter tensor's placement inside the arena.
struct LayerEntry {
  std::string name;        // e.g. "dense(4->16)/param0"
  std::uint32_t layer_id = 0;  // paper layer index (position in param_layers())
  std::int64_t offset = 0;     // first float inside the arena (set by LayerIndex)
  std::int64_t numel = 0;      // element count (set by LayerIndex from shape)
  Shape shape;
  bool is_obfuscated = false;  // role tag: this layer is DINAR-obfuscated on the wire
};

// Immutable layout of a FlatParams arena: entries in model order (layer by
// layer, tensors in registration order), plus precomputed per-layer ranges.
// Always held by shared_ptr<const LayerIndex>; every snapshot of the same
// model shares one instance.
class LayerIndex {
 public:
  // Validates and finalizes `entries`: layer ids must start at 0 and be
  // non-decreasing with no gaps; offsets and numels are computed from the
  // shapes, so callers only fill name/layer_id/shape/is_obfuscated.
  static std::shared_ptr<const LayerIndex> build(std::vector<LayerEntry> entries);

  std::size_t num_entries() const { return entries_.size(); }
  std::size_t num_layers() const { return layer_ranges_.size(); }
  std::int64_t total_numel() const { return total_numel_; }

  const LayerEntry& entry(std::size_t i) const;
  const std::vector<LayerEntry>& entries() const { return entries_; }

  // [first, last) positions in entries() belonging to layer `layer`.
  std::pair<std::size_t, std::size_t> layer_entry_range(std::size_t layer) const;
  // [begin, end) float positions of layer `layer` inside the arena.
  std::pair<std::int64_t, std::int64_t> layer_float_range(std::size_t layer) const;

  // Layout compatibility compares entry shapes in order only. Names and
  // layer ids are deliberately excluded: from_tensors() synthesizes a
  // one-entry-per-layer index, and those snapshots must still install into
  // a model whose index groups entries per real layer.
  bool same_layout(const LayerIndex& other) const;

  // Copy of this index with is_obfuscated set on exactly `layers`
  // (paper layer ids); all other entries tagged false.
  std::shared_ptr<const LayerIndex> with_obfuscated(
      const std::vector<std::size_t>& layers) const;

 private:
  LayerIndex() = default;
  std::vector<LayerEntry> entries_;
  // Entry-position range per layer id, dense in [0, num_layers).
  std::vector<std::pair<std::size_t, std::size_t>> layer_ranges_;
  std::int64_t total_numel_ = 0;
};

// Contiguous snapshot of all model parameters (or gradients, or any other
// parameter-shaped vector such as optimizer state). Arena allocations are
// reported to MemoryTracker like Tensor storage, so bench_copybw can count
// them.
class FlatParams {
 public:
  FlatParams() = default;
  // Zero-filled arena sized by the index.
  explicit FlatParams(std::shared_ptr<const LayerIndex> index);
  // Adopts `values`; size must equal index->total_numel().
  FlatParams(std::shared_ptr<const LayerIndex> index, std::vector<float> values);

  FlatParams(const FlatParams& other);
  FlatParams& operator=(const FlatParams& other);
  FlatParams(FlatParams&& other) noexcept;
  FlatParams& operator=(FlatParams&& other) noexcept;
  ~FlatParams();

  bool empty() const { return index_ == nullptr; }
  std::int64_t numel() const { return index_ ? index_->total_numel() : 0; }
  const std::shared_ptr<const LayerIndex>& index() const { return index_; }

  // Zero-copy views into the arena.
  std::span<float> as_span() { return {data_.data(), data_.size()}; }
  std::span<const float> as_span() const { return {data_.data(), data_.size()}; }
  std::span<float> entry_span(std::size_t i);
  std::span<const float> entry_span(std::size_t i) const;
  std::span<float> layer_span(std::size_t layer);
  std::span<const float> layer_span(std::size_t layer) const;

  bool same_layout(const FlatParams& other) const;

  // Re-tags the layout without touching data (e.g. marking obfuscated
  // layers on an upload). The new index must have the same total numel.
  void reset_index(std::shared_ptr<const LayerIndex> index);

  // Builds a snapshot from ordered tensors, synthesizing a one-entry-per-
  // tensor index (entry i is layer i). The entry point for tensor-shaped
  // input, e.g. ad-hoc snapshots in tests and benches.
  static FlatParams from_tensors(const std::vector<Tensor>& tensors);
  // Adopts `index` and shape-checks the tensors against it entry by entry.
  static FlatParams from_tensors(std::shared_ptr<const LayerIndex> index,
                                 const std::vector<Tensor>& tensors);

 private:
  void track_alloc();
  void track_release();

  std::shared_ptr<const LayerIndex> index_;
  std::vector<float> data_;
};

// Whole-arena math (layout-checked, named errors). These preserve the
// per-coordinate order and float types of the old per-tensor loops, so
// results are bit-identical to the pre-flat code.
void flat_add(FlatParams& a, const FlatParams& b);
void flat_scale(FlatParams& a, float s);
void flat_add_scaled(FlatParams& a, const FlatParams& b, float s);
double flat_l2_norm(const FlatParams& a);
bool flat_all_finite(const FlatParams& a);
// Position of the first entry containing a non-finite value, or
// num_entries() if all finite (used for rejection diagnostics).
std::size_t flat_first_non_finite_entry(const FlatParams& a);

// Serde: index header (per entry: name, layer id, flags, shape) followed by
// the arena as one contiguous f32 payload. Reads validate every length
// against the remaining buffer and throw dinar::Error on corruption.
void write_flat_params(BinaryWriter& w, const FlatParams& p);
FlatParams read_flat_params(BinaryReader& r);

// The index-header half of the flat-params format on its own. The DFRM
// message body (fl/wire_codec.*) reuses this exact header and replaces
// only the arena payload with per-entry coded runs.
void write_layer_index(BinaryWriter& w, const LayerIndex& index);
std::shared_ptr<const LayerIndex> read_layer_index(BinaryReader& r);

}  // namespace dinar::nn
