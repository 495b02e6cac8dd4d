#include "store/wal.h"

#include <fcntl.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "store/io.h"
#include "util/crashpoint.h"
#include "util/error.h"

namespace dinar::store {
namespace {

constexpr std::size_t kHeaderBytes = 8;        // magic + version
constexpr std::size_t kFrameHeaderBytes = 8;   // payload_len + crc
// A record longer than this is taken as frame corruption, not a real
// payload — it bounds the allocation a corrupted length prefix can cause.
constexpr std::uint32_t kMaxRecordBytes = 1u << 30;

void put_u32(std::uint8_t* p, std::uint32_t v) { std::memcpy(p, &v, 4); }
std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

void write_all_fd(int fd, const std::uint8_t* data, std::size_t n,
                  const std::string& path) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      DINAR_CHECK(false, "WAL write to " << path << " failed: "
                                         << std::strerror(errno));
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
}

// Writes bytes [begin, end) of the frame `header ++ payload` with writev,
// so the payload goes to the kernel straight from the caller's buffer.
void write_frame_range(int fd, const std::uint8_t* header,
                       std::span<const std::uint8_t> payload, std::size_t begin,
                       std::size_t end, const std::string& path) {
  while (begin < end) {
    iovec iov[2];
    int count = 0;
    if (begin < kFrameHeaderBytes) {
      iov[count++] = {const_cast<std::uint8_t*>(header) + begin,
                      std::min(end, kFrameHeaderBytes) - begin};
    }
    if (end > kFrameHeaderBytes) {
      const std::size_t from = std::max(begin, kFrameHeaderBytes) - kFrameHeaderBytes;
      iov[count++] = {const_cast<std::uint8_t*>(payload.data()) + from,
                      end - kFrameHeaderBytes - from};
    }
    const ssize_t w = ::writev(fd, iov, count);
    if (w < 0) {
      if (errno == EINTR) continue;
      DINAR_CHECK(false, "WAL write to " << path << " failed: "
                                         << std::strerror(errno));
    }
    begin += static_cast<std::size_t>(w);
  }
}

}  // namespace

Wal::ScanResult Wal::scan(const std::string& path) {
  ScanResult out;
  out.file = MappedFile::open(path);
  if (!out.file.has_value()) {
    out.missing_or_empty = true;
    return out;
  }
  const std::span<const std::uint8_t> bytes = out.file->bytes();
  if (bytes.size() < kHeaderBytes || get_u32(bytes.data()) != kWalMagic ||
      get_u32(bytes.data() + 4) != kWalVersion) {
    out.missing_or_empty = true;
    out.tail_discarded = !bytes.empty();
    return out;
  }
  std::size_t pos = kHeaderBytes;
  out.valid_bytes = pos;
  while (pos + kFrameHeaderBytes <= bytes.size()) {
    const std::uint32_t len = get_u32(bytes.data() + pos);
    const std::uint32_t crc = get_u32(bytes.data() + pos + 4);
    if (len > kMaxRecordBytes || pos + kFrameHeaderBytes + len > bytes.size())
      break;  // torn tail: header claims more bytes than the file holds
    const std::span<const std::uint8_t> payload = bytes.subspan(pos + kFrameHeaderBytes, len);
    if (crc32(payload.data(), len) != crc) break;  // bit flip or partially written
    out.records.push_back(payload);
    pos += kFrameHeaderBytes + len;
    out.valid_bytes = pos;
  }
  out.tail_discarded = out.valid_bytes < bytes.size();
  return out;
}

Wal::Wal(std::string path) : path_(std::move(path)) { open_and_position(); }

Wal::~Wal() {
  if (fd_ >= 0) ::close(fd_);
}

void Wal::open_and_position() {
  // Only the extent of the valid prefix is kept: the scan's mapping is
  // dropped here, before either branch below truncates the file.
  bool missing_or_empty = false, tail_discarded = false;
  {
    const ScanResult existing = scan(path_);
    missing_or_empty = existing.missing_or_empty;
    tail_discarded = existing.tail_discarded;
    cursor_ = existing.valid_bytes;
  }
  fd_ = ::open(path_.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  DINAR_CHECK(fd_ >= 0, "cannot open WAL " << path_ << ": " << std::strerror(errno));
  if (missing_or_empty) {
    // Fresh (or unrecognizable) log: write a clean header. An
    // unrecognizable file has no salvageable records by definition.
    std::uint8_t header[kHeaderBytes];
    put_u32(header, kWalMagic);
    put_u32(header + 4, kWalVersion);
    DINAR_CHECK(::ftruncate(fd_, 0) == 0,
                "cannot truncate WAL " << path_ << ": " << std::strerror(errno));
    write_all_fd(fd_, header, kHeaderBytes, path_);
    DINAR_CHECK(::fsync(fd_) == 0,
                "fsync of WAL " << path_ << " failed: " << std::strerror(errno));
    fsync_parent_dir(path_);
    cursor_ = kHeaderBytes;
    return;
  }
  // Existing log: drop any torn tail so the next append starts on a clean
  // frame boundary.
  if (tail_discarded) {
    DINAR_CHECK(::ftruncate(fd_, static_cast<off_t>(cursor_)) == 0,
                "cannot trim torn WAL tail of " << path_ << ": "
                                                << std::strerror(errno));
    DINAR_CHECK(::fsync(fd_) == 0,
                "fsync of WAL " << path_ << " failed: " << std::strerror(errno));
  }
  DINAR_CHECK(::lseek(fd_, static_cast<off_t>(cursor_), SEEK_SET) >= 0,
              "cannot seek WAL " << path_ << ": " << std::strerror(errno));
}

void Wal::append(std::span<const std::uint8_t> payload) {
  DINAR_CHECK(payload.size() <= kMaxRecordBytes,
              "WAL record of " << payload.size() << " bytes exceeds the "
                               << kMaxRecordBytes << "-byte frame limit");
  std::uint8_t header[kFrameHeaderBytes];
  put_u32(header, static_cast<std::uint32_t>(payload.size()));
  put_u32(header + 4, crc32(payload.data(), payload.size()));
  const std::size_t frame_bytes = kFrameHeaderBytes + payload.size();

  crashpoint("wal.append.pre_write");
  if (crashpoint_armed()) {
    // Split the write so the mid_write crashpoint leaves a genuinely torn
    // frame (header + partial payload) on disk. Unarmed processes keep the
    // single-write fast path.
    const std::size_t half = frame_bytes / 2;
    write_frame_range(fd_, header, payload, 0, half, path_);
    crashpoint("wal.append.mid_write");
    write_frame_range(fd_, header, payload, half, frame_bytes, path_);
  } else {
    write_frame_range(fd_, header, payload, 0, frame_bytes, path_);
  }
  crashpoint("wal.append.pre_fsync");
  DINAR_CHECK(::fsync(fd_) == 0,
              "fsync of WAL " << path_ << " failed: " << std::strerror(errno));
  crashpoint("wal.append.post_fsync");
  cursor_ += frame_bytes;
}

void Wal::reset() {
  DINAR_CHECK(::ftruncate(fd_, static_cast<off_t>(kHeaderBytes)) == 0,
              "cannot reset WAL " << path_ << ": " << std::strerror(errno));
  DINAR_CHECK(::lseek(fd_, static_cast<off_t>(kHeaderBytes), SEEK_SET) >= 0,
              "cannot seek WAL " << path_ << ": " << std::strerror(errno));
  DINAR_CHECK(::fsync(fd_) == 0,
              "fsync of WAL " << path_ << " failed: " << std::strerror(errno));
  cursor_ = kHeaderBytes;
}

}  // namespace dinar::store
