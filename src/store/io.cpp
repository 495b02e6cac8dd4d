#include "store/io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "util/crashpoint.h"
#include "util/error.h"

namespace dinar::store {
namespace {

// Slice-by-8 tables for the reflected 0xEDB88320 polynomial: t[0] is the
// classic bytewise table; t[s][b] is the CRC of byte b followed by s zero
// bytes, so eight table lookups advance the register over eight bytes.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

CrcTables make_crc_tables() {
  CrcTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (std::size_t s = 1; s < 8; ++s)
    for (std::uint32_t i = 0; i < 256; ++i)
      t[s][i] = (t[s - 1][i] >> 8) ^ t[0][t[s - 1][i] & 0xFFu];
  return t;
}

// Little-endian 32-bit load, whatever the host's byte order.
std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 | static_cast<std::uint32_t>(p[3]) << 24;
}

// A tier's register update wrapped into crc32()'s signature: the register
// starts at the inverted seed and is inverted again at the end.
template <std::uint32_t (*Update)(std::uint32_t, const std::uint8_t*, std::size_t)>
std::uint32_t crc32_with(const void* data, std::size_t n, std::uint32_t seed) {
  return Update(seed ^ 0xFFFFFFFFu, static_cast<const std::uint8_t*>(data), n) ^ 0xFFFFFFFFu;
}

// RAII fd that never throws from its destructor.
struct Fd {
  int fd = -1;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
  int release() {
    const int f = fd;
    fd = -1;
    return f;
  }
};

void write_all(int fd, const std::uint8_t* data, std::size_t n, const std::string& path) {
  while (n > 0) {
    const ssize_t w = ::write(fd, data, n);
    if (w < 0) {
      if (errno == EINTR) continue;
      DINAR_CHECK(false, "write to " << path << " failed: " << std::strerror(errno));
    }
    data += w;
    n -= static_cast<std::size_t>(w);
  }
}

}  // namespace

namespace detail {

std::uint32_t crc32_update_slice8(std::uint32_t c, const std::uint8_t* p, std::size_t n) {
  static const CrcTables t = make_crc_tables();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = load_le32(p) ^ c;
    const std::uint32_t hi = load_le32(p + 4);
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^ t[5][(lo >> 16) & 0xFFu] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
        t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  return c;
}

}  // namespace detail

Crc32Fn crc32_kernel(Crc32Kernel kernel) {
  switch (kernel) {
    case Crc32Kernel::kSlice8:
      return crc32_with<detail::crc32_update_slice8>;
    case Crc32Kernel::kPclmul:
#if DINAR_CRC_HAVE_PCLMUL
      __builtin_cpu_init();
      return __builtin_cpu_supports("pclmul") != 0 ? crc32_with<detail::crc32_update_pclmul>
                                                   : nullptr;
#else
      return nullptr;
#endif
  }
  return nullptr;
}

std::uint32_t crc32(const void* data, std::size_t n, std::uint32_t seed) {
  static const Crc32Fn fn = crc32_kernel(Crc32Kernel::kPclmul) != nullptr
                                ? crc32_kernel(Crc32Kernel::kPclmul)
                                : crc32_kernel(Crc32Kernel::kSlice8);
  return fn(data, n, seed);
}

std::optional<std::vector<std::uint8_t>> read_file(const std::string& path) {
  Fd f{::open(path.c_str(), O_RDONLY | O_CLOEXEC)};
  if (f.fd < 0) {
    if (errno == ENOENT) return std::nullopt;
    DINAR_CHECK(false, "cannot open " << path << ": " << std::strerror(errno));
  }
  struct stat st;
  DINAR_CHECK(::fstat(f.fd, &st) == 0, "cannot stat " << path << ": " << std::strerror(errno));
  // Read in place into a buffer sized from fstat, with one spare byte for
  // the read that sees EOF; a file that grew since fstat is read on.
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(st.st_size) + 1);
  std::size_t size = 0;
  for (;;) {
    if (size == bytes.size()) bytes.resize(std::max<std::size_t>(2 * size, 1 << 16));
    const ssize_t r = ::read(f.fd, bytes.data() + size, bytes.size() - size);
    if (r < 0) {
      if (errno == EINTR) continue;
      DINAR_CHECK(false, "read from " << path << " failed: " << std::strerror(errno));
    }
    if (r == 0) break;
    size += static_cast<std::size_t>(r);
  }
  bytes.resize(size);
  return bytes;
}

void fsync_parent_dir(const std::string& path) {
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  Fd d{::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC)};
  if (d.fd < 0) return;  // some filesystems refuse directory fds; best effort
  ::fsync(d.fd);         // ditto for the sync itself
}

void atomic_write_file(const std::string& path, std::span<const std::uint8_t> bytes,
                       const char* crash_site) {
  const std::string site = crash_site == nullptr ? std::string() : crash_site;
  const std::string tmp = path + ".tmp";
  if (!site.empty()) crashpoint((site + ".pre_write").c_str());
  {
    Fd f{::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644)};
    DINAR_CHECK(f.fd >= 0, "cannot create " << tmp << ": " << std::strerror(errno));
    write_all(f.fd, bytes.data(), bytes.size(), tmp);
    if (!site.empty()) crashpoint((site + ".pre_fsync").c_str());
    DINAR_CHECK(::fsync(f.fd) == 0, "fsync of " << tmp << " failed: "
                                                << std::strerror(errno));
  }
  if (!site.empty()) crashpoint((site + ".rename").c_str());
  DINAR_CHECK(::rename(tmp.c_str(), path.c_str()) == 0,
              "rename " << tmp << " -> " << path << " failed: "
                        << std::strerror(errno));
  fsync_parent_dir(path);
}

bool path_exists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

void ensure_dir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  DINAR_CHECK(!ec, "cannot create directory " << dir << ": " << ec.message());
}

void remove_file(const std::string& path) {
  if (::unlink(path.c_str()) == 0 || errno == ENOENT) return;
  DINAR_CHECK(false, "cannot remove " << path << ": " << std::strerror(errno));
}

}  // namespace dinar::store
