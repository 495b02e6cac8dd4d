#include "nn/flat_params.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "util/error.h"
#include "util/memory_tracker.h"

namespace dinar::nn {

// -- LayerIndex --------------------------------------------------------------

std::shared_ptr<const LayerIndex> LayerIndex::build(std::vector<LayerEntry> entries) {
  auto index = std::shared_ptr<LayerIndex>(new LayerIndex());
  index->entries_ = std::move(entries);
  std::int64_t offset = 0;
  std::size_t layer_begin = 0;
  for (std::size_t i = 0; i < index->entries_.size(); ++i) {
    LayerEntry& e = index->entries_[i];
    e.offset = offset;
    e.numel = shape_numel(e.shape);
    // Deserialized shapes are attacker-controlled: each numel fits int64,
    // but their sum may not (signed overflow is UB).
    DINAR_CHECK(e.numel <= std::numeric_limits<std::int64_t>::max() - offset,
                "layer index entry " << i << " (" << e.name
                                     << ") overflows the arena's element count");
    offset += e.numel;
    if (i == 0) {
      DINAR_CHECK(e.layer_id == 0, "layer index must start at layer 0, got "
                                       << e.layer_id);
    } else {
      const std::uint32_t prev = index->entries_[i - 1].layer_id;
      DINAR_CHECK(e.layer_id == prev || e.layer_id == prev + 1,
                  "layer ids must be dense and non-decreasing: entry "
                      << i << " has layer " << e.layer_id << " after " << prev);
      if (e.layer_id != prev) {  // first entry of the next layer
        index->layer_ranges_.emplace_back(layer_begin, i);
        layer_begin = i;
      }
    }
  }
  if (!index->entries_.empty())
    index->layer_ranges_.emplace_back(layer_begin, index->entries_.size());
  index->total_numel_ = offset;
  return index;
}

const LayerEntry& LayerIndex::entry(std::size_t i) const {
  DINAR_CHECK(i < entries_.size(),
              "layer index entry " << i << " out of " << entries_.size());
  return entries_[i];
}

std::pair<std::size_t, std::size_t> LayerIndex::layer_entry_range(
    std::size_t layer) const {
  DINAR_CHECK(layer < layer_ranges_.size(),
              "layer " << layer << " out of " << layer_ranges_.size());
  return layer_ranges_[layer];
}

std::pair<std::int64_t, std::int64_t> LayerIndex::layer_float_range(
    std::size_t layer) const {
  const auto [first, last] = layer_entry_range(layer);
  const std::int64_t begin = entries_[first].offset;
  const std::int64_t end = entries_[last - 1].offset + entries_[last - 1].numel;
  return {begin, end};
}

bool LayerIndex::same_layout(const LayerIndex& other) const {
  if (entries_.size() != other.entries_.size()) return false;
  for (std::size_t i = 0; i < entries_.size(); ++i)
    if (entries_[i].shape != other.entries_[i].shape) return false;
  return true;
}

std::shared_ptr<const LayerIndex> LayerIndex::with_obfuscated(
    const std::vector<std::size_t>& layers) const {
  std::vector<LayerEntry> entries = entries_;
  for (LayerEntry& e : entries) e.is_obfuscated = false;
  for (std::size_t layer : layers) {
    const auto [first, last] = layer_entry_range(layer);
    for (std::size_t i = first; i < last; ++i) entries[i].is_obfuscated = true;
  }
  return build(std::move(entries));
}

// -- FlatParams --------------------------------------------------------------

FlatParams::FlatParams(std::shared_ptr<const LayerIndex> index)
    : index_(std::move(index)),
      data_(index_ ? static_cast<std::size_t>(index_->total_numel()) : 0, 0.0f) {
  track_alloc();
}

FlatParams::FlatParams(std::shared_ptr<const LayerIndex> index,
                       std::vector<float> values)
    : index_(std::move(index)), data_(std::move(values)) {
  DINAR_CHECK(index_ != nullptr, "FlatParams requires a layer index");
  DINAR_CHECK(static_cast<std::int64_t>(data_.size()) == index_->total_numel(),
              "arena size " << data_.size() << " does not match index numel "
                            << index_->total_numel());
  track_alloc();
}

FlatParams::FlatParams(const FlatParams& other)
    : index_(other.index_), data_(other.data_) {
  track_alloc();
  MemoryTracker::instance().record_copy(data_.size() * sizeof(float));
}

FlatParams& FlatParams::operator=(const FlatParams& other) {
  if (this == &other) return *this;
  track_release();
  index_ = other.index_;
  data_ = other.data_;
  track_alloc();
  MemoryTracker::instance().record_copy(data_.size() * sizeof(float));
  return *this;
}

FlatParams::FlatParams(FlatParams&& other) noexcept
    : index_(std::move(other.index_)), data_(std::move(other.data_)) {
  other.index_ = nullptr;
}

FlatParams& FlatParams::operator=(FlatParams&& other) noexcept {
  if (this == &other) return *this;
  track_release();
  index_ = std::move(other.index_);
  data_ = std::move(other.data_);
  other.index_ = nullptr;
  return *this;
}

FlatParams::~FlatParams() { track_release(); }

void FlatParams::track_alloc() {
  if (!data_.empty())
    MemoryTracker::instance().allocate(data_.size() * sizeof(float));
}

void FlatParams::track_release() {
  if (!data_.empty())
    MemoryTracker::instance().release(data_.size() * sizeof(float));
}

std::span<float> FlatParams::entry_span(std::size_t i) {
  const LayerEntry& e = index_->entry(i);
  return {data_.data() + e.offset, static_cast<std::size_t>(e.numel)};
}

std::span<const float> FlatParams::entry_span(std::size_t i) const {
  const LayerEntry& e = index_->entry(i);
  return {data_.data() + e.offset, static_cast<std::size_t>(e.numel)};
}

std::span<float> FlatParams::layer_span(std::size_t layer) {
  const auto [begin, end] = index_->layer_float_range(layer);
  return {data_.data() + begin, static_cast<std::size_t>(end - begin)};
}

std::span<const float> FlatParams::layer_span(std::size_t layer) const {
  const auto [begin, end] = index_->layer_float_range(layer);
  return {data_.data() + begin, static_cast<std::size_t>(end - begin)};
}

bool FlatParams::same_layout(const FlatParams& other) const {
  if (index_ == other.index_) return true;
  if (index_ == nullptr || other.index_ == nullptr) return false;
  return index_->same_layout(*other.index_);
}

void FlatParams::reset_index(std::shared_ptr<const LayerIndex> index) {
  DINAR_CHECK(index != nullptr, "reset_index requires a layer index");
  DINAR_CHECK(index->total_numel() == numel(),
              "reset_index numel mismatch: " << index->total_numel() << " vs "
                                             << numel());
  index_ = std::move(index);
}

FlatParams FlatParams::from_tensors(const std::vector<Tensor>& tensors) {
  std::vector<LayerEntry> entries;
  entries.reserve(tensors.size());
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    LayerEntry e;
    e.name = "entry" + std::to_string(i);
    e.layer_id = static_cast<std::uint32_t>(i);
    e.shape = tensors[i].shape();
    entries.push_back(std::move(e));
  }
  return from_tensors(LayerIndex::build(std::move(entries)), tensors);
}

FlatParams FlatParams::from_tensors(std::shared_ptr<const LayerIndex> index,
                                    const std::vector<Tensor>& tensors) {
  DINAR_CHECK(index != nullptr, "from_tensors requires a layer index");
  DINAR_CHECK(tensors.size() == index->num_entries(),
              "from_tensors: " << tensors.size() << " tensors for an index of "
                               << index->num_entries() << " entries");
  std::vector<float> values(static_cast<std::size_t>(index->total_numel()));
  for (std::size_t i = 0; i < tensors.size(); ++i) {
    const LayerEntry& e = index->entry(i);
    DINAR_CHECK(tensors[i].shape() == e.shape,
                "from_tensors: shape mismatch at entry " << i << " ("
                    << e.name << "): " << shape_to_string(tensors[i].shape())
                    << " vs " << shape_to_string(e.shape));
    std::memcpy(values.data() + e.offset, tensors[i].data(),
                static_cast<std::size_t>(e.numel) * sizeof(float));
  }
  MemoryTracker::instance().record_copy(values.size() * sizeof(float));
  return FlatParams(std::move(index), std::move(values));
}

// -- flat ops ----------------------------------------------------------------

namespace {
void check_layout(const FlatParams& a, const FlatParams& b, const char* op) {
  DINAR_CHECK(a.same_layout(b),
              op << ": layout mismatch (" << a.numel() << " vs " << b.numel()
                 << " elements across "
                 << (a.index() ? a.index()->num_entries() : 0) << " vs "
                 << (b.index() ? b.index()->num_entries() : 0) << " entries)");
}
}  // namespace

void flat_add(FlatParams& a, const FlatParams& b) {
  check_layout(a, b, "flat_add");
  span_add(a.as_span(), b.as_span());
}

void flat_scale(FlatParams& a, float s) { span_scale(a.as_span(), s); }

void flat_add_scaled(FlatParams& a, const FlatParams& b, float s) {
  check_layout(a, b, "flat_add_scaled");
  span_axpy(a.as_span(), b.as_span(), s);
}

double flat_l2_norm(const FlatParams& a) {
  // Per-entry accumulation preserved from the pre-flat per-tensor loop:
  // each tensor's squared sum is finished before the next is added, so the
  // result is bit-identical to the historical implementation.
  double s = 0.0;
  if (a.index() != nullptr)
    for (std::size_t i = 0; i < a.index()->num_entries(); ++i)
      s += span_squared_l2(a.entry_span(i));
  return std::sqrt(s);
}

bool flat_all_finite(const FlatParams& a) {
  return flat_first_non_finite_entry(a) ==
         (a.index() ? a.index()->num_entries() : 0);
}

std::size_t flat_first_non_finite_entry(const FlatParams& a) {
  if (a.index() == nullptr) return 0;
  for (std::size_t i = 0; i < a.index()->num_entries(); ++i)
    for (float v : a.entry_span(i))
      if (!std::isfinite(v)) return i;
  return a.index()->num_entries();
}

// -- serde -------------------------------------------------------------------

void write_layer_index(BinaryWriter& w, const LayerIndex& index) {
  w.write_u64(index.num_entries());
  for (std::size_t i = 0; i < index.num_entries(); ++i) {
    const LayerEntry& e = index.entry(i);
    w.write_string(e.name);
    w.write_u32(e.layer_id);
    w.write_u8(e.is_obfuscated ? 1 : 0);
    w.write_i64_vector(e.shape);
  }
}

std::shared_ptr<const LayerIndex> read_layer_index(BinaryReader& r) {
  // Each entry header is at least 21 bytes (name length + layer id + flags
  // + rank prefix), so bounding the count rejects corrupt prefixes early.
  const std::uint64_t n = r.read_length(21);
  std::vector<LayerEntry> entries;
  entries.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    LayerEntry e;
    e.name = r.read_string();
    e.layer_id = r.read_u32();
    const std::uint8_t flags = r.read_u8();
    DINAR_CHECK(flags <= 1, "flat params entry " << i << " has unknown flags "
                                                 << static_cast<int>(flags));
    e.is_obfuscated = flags != 0;
    e.shape = r.read_i64_vector();
    entries.push_back(std::move(e));
  }
  // build() validates layer-id density and recomputes offsets, so a
  // tampered header cannot produce out-of-bounds spans.
  return LayerIndex::build(std::move(entries));
}

void write_flat_params(BinaryWriter& w, const FlatParams& p) {
  if (p.index() != nullptr) {
    write_layer_index(w, *p.index());
  } else {
    w.write_u64(0);
  }
  w.write_f32_span(p.as_span().data(), p.as_span().size());
  MemoryTracker::instance().record_copy(p.as_span().size() * sizeof(float));
}

FlatParams read_flat_params(BinaryReader& r) {
  auto index = read_layer_index(r);
  std::vector<float> values;
  r.read_f32_span(values);
  DINAR_CHECK(static_cast<std::int64_t>(values.size()) == index->total_numel(),
              "flat params payload has " << values.size()
                                         << " floats, index expects "
                                         << index->total_numel());
  MemoryTracker::instance().record_copy(values.size() * sizeof(float));
  return FlatParams(std::move(index), std::move(values));
}

}  // namespace dinar::nn
