// Binary serialization primitives.
//
// FL messages (model updates, votes, aggregated models) are serialized to
// byte buffers before crossing the transport, so the runtime measures real
// payload sizes and defenses such as secure aggregation operate on the same
// bytes a networked deployment would ship. Format: little-endian, no
// padding, length-prefixed containers. A four-byte magic + version header
// guards model checkpoints.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "util/error.h"

namespace dinar {

class BinaryWriter {
 public:
  void write_u8(std::uint8_t v) { append(&v, sizeof v); }
  void write_u32(std::uint32_t v) { append(&v, sizeof v); }
  void write_u64(std::uint64_t v) { append(&v, sizeof v); }
  void write_i64(std::int64_t v) { append(&v, sizeof v); }
  void write_f32(float v) { append(&v, sizeof v); }
  void write_f64(double v) { append(&v, sizeof v); }

  void write_bytes(const void* data, std::size_t n) { append(data, n); }

  void write_string(const std::string& s) {
    write_u64(s.size());
    append(s.data(), s.size());
  }

  void write_f32_span(const float* data, std::size_t n) {
    write_u64(n);
    append(data, n * sizeof(float));
  }

  void write_i64_vector(const std::vector<std::int64_t>& v) {
    write_u64(v.size());
    append(v.data(), v.size() * sizeof(std::int64_t));
  }

  const std::vector<std::uint8_t>& buffer() const { return buf_; }
  std::vector<std::uint8_t> take() { return std::move(buf_); }
  std::size_t size() const { return buf_.size(); }

 private:
  void append(const void* data, std::size_t n) {
    if (n == 0) return;  // empty spans may come with a null pointer
    // Grows geometrically, then copies in place: vector::insert of the
    // same bytes trips GCC 12's -Wstringop-overflow once inlined.
    const std::size_t old = buf_.size();
    if (buf_.capacity() - old < n) buf_.reserve(std::max(old + n, 2 * buf_.capacity()));
    buf_.resize(old + n);
    std::memcpy(buf_.data() + old, data, n);
  }

  std::vector<std::uint8_t> buf_;
};

class BinaryReader {
 public:
  BinaryReader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}
  explicit BinaryReader(const std::vector<std::uint8_t>& buf)
      : BinaryReader(buf.data(), buf.size()) {}

  std::uint8_t read_u8() { return read_pod<std::uint8_t>(); }
  std::uint32_t read_u32() { return read_pod<std::uint32_t>(); }
  std::uint64_t read_u64() { return read_pod<std::uint64_t>(); }
  std::int64_t read_i64() { return read_pod<std::int64_t>(); }
  float read_f32() { return read_pod<float>(); }
  double read_f64() { return read_pod<double>(); }

  std::string read_string() {
    const std::uint64_t n = read_length(1);
    std::string s(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return s;
  }

  void read_f32_span(std::vector<float>& out) {
    const std::uint64_t n = read_length(sizeof(float));
    out.resize(n);
    if (n != 0) std::memcpy(out.data(), data_ + pos_, n * sizeof(float));
    pos_ += n * sizeof(float);
  }

  std::vector<std::int64_t> read_i64_vector() {
    const std::uint64_t n = read_length(sizeof(std::int64_t));
    std::vector<std::int64_t> v(n);
    if (n != 0) std::memcpy(v.data(), data_ + pos_, n * sizeof(std::int64_t));
    pos_ += n * sizeof(std::int64_t);
    return v;
  }

  // Bounds-checked raw read: returns a pointer to the next `n` bytes inside
  // the buffer and advances past them. The pointer aliases the input buffer
  // (valid for its lifetime) and has no alignment guarantee — memcpy out of
  // it for anything wider than a byte.
  const std::uint8_t* read_raw(std::uint64_t n) {
    require(n);
    const std::uint8_t* p = data_ + pos_;
    pos_ += n;
    return p;
  }

  std::size_t remaining() const { return size_ - pos_; }
  bool exhausted() const { return pos_ == size_; }

  // Reads a u64 element count and checks it against the remaining buffer
  // *before* the caller allocates, so a corrupted length prefix throws
  // dinar::Error instead of attempting a multi-GB resize. The division
  // keeps `n * elem_size` from overflowing.
  std::uint64_t read_length(std::uint64_t elem_size) {
    const std::uint64_t n = read_u64();
    DINAR_CHECK(n <= (size_ - pos_) / elem_size,
                "serde length prefix " << n << " (" << elem_size
                                       << "-byte elements) exceeds the "
                                       << (size_ - pos_) << " remaining bytes");
    return n;
  }

 private:
  template <typename T>
  T read_pod() {
    require(sizeof(T));
    T v;
    std::memcpy(&v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }

  // Overflow-safe: `pos_ + n` is never formed, so an attacker-controlled n
  // near 2^64 cannot wrap past the bounds check.
  void require(std::uint64_t n) {
    DINAR_CHECK(n <= size_ - pos_,
                "serde underrun: need " << n << " bytes, have " << (size_ - pos_));
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace dinar
