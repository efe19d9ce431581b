// Read-only memory-mapped file, RAII-owned.
//
// The scale subsystem's zero-copy load path: a mapped CSR snapshot's
// offset/target/weight blobs are read in place (no per-load copy, no
// mutexes — the mapping is immutable for its lifetime), so snapshot
// loads cost one mmap plus a checksum pass regardless of graph size,
// and the page cache shares the bytes across processes.
#pragma once

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>

#include "util/failpoint.hpp"

namespace lfpr {

class MmapFile {
 public:
  MmapFile() = default;

  /// Map `path` read-only (MAP_SHARED: instances of the same snapshot
  /// share physical pages). Throws std::runtime_error with the path and
  /// errno text on failure. An empty file maps to an empty span.
  static MmapFile open(const std::string& path) {
    LFPR_FAILPOINT("mmap.open");
    const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
      throw std::runtime_error("MmapFile: cannot open '" + path +
                               "': " + std::strerror(errno));
    struct ::stat st{};
    if (::fstat(fd, &st) != 0) {
      const int err = errno;
      ::close(fd);
      throw std::runtime_error("MmapFile: cannot stat '" + path +
                               "': " + std::strerror(err));
    }
    MmapFile f;
    f.size_ = static_cast<std::size_t>(st.st_size);
    if (f.size_ > 0) {
      LFPR_FAILPOINT("mmap.map");
      void* p = ::mmap(nullptr, f.size_, PROT_READ, MAP_SHARED, fd, 0);
      if (p == MAP_FAILED) {
        const int err = errno;
        ::close(fd);
        throw std::runtime_error("MmapFile: mmap of '" + path +
                                 "' failed: " + std::strerror(err));
      }
      f.data_ = static_cast<const std::byte*>(p);
    }
    ::close(fd);  // the mapping keeps the file alive
    return f;
  }

  MmapFile(MmapFile&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  MmapFile& operator=(MmapFile&& other) noexcept {
    if (this != &other) {
      reset();
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;
  ~MmapFile() { reset(); }

  [[nodiscard]] const std::byte* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return {data_, size_};
  }

  /// Advise the kernel the mapping will be read sequentially (the
  /// checksum pass) — best effort.
  void adviseSequential() const noexcept {
    if (data_ != nullptr)
      ::madvise(const_cast<std::byte*>(data_), size_, MADV_SEQUENTIAL);
  }

 private:
  void reset() noexcept {
    if (data_ != nullptr) ::munmap(const_cast<std::byte*>(data_), size_);
    data_ = nullptr;
    size_ = 0;
  }

  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace lfpr
