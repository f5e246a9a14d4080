#include "util/slowfs.hpp"

#include <cmath>

namespace acx::storage {

namespace stdfs = std::filesystem;

SlowFileSystem::SlowFileSystem(FileSystem& inner, SlowConfig config)
    : inner_(inner), cfg_(std::move(config)), rng_(cfg_.seed) {}

void SlowFileSystem::delay(std::uintmax_t transfer_bytes) {
  double ms = cfg_.base_ms;
  ms += cfg_.per_kib_ms * (static_cast<double>(transfer_bytes) / 1024.0);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (cfg_.jitter_ms > 0) ms += rng_.next_double() * cfg_.jitter_ms;
    if (ms <= 0) return;
    stats_.ops += 1;
    stats_.total_latency_ms += ms;
  }
  cfg_.sleep(static_cast<int>(std::lround(ms)));
}

Result<std::string, IoError> SlowFileSystem::read_file(
    const stdfs::path& path) {
  delay(inner_.file_size(path));
  return inner_.read_file(path);
}

Result<Unit, IoError> SlowFileSystem::write_file(const stdfs::path& path,
                                                 std::string_view content) {
  delay(content.size());
  return inner_.write_file(path, content);
}

Result<Unit, IoError> SlowFileSystem::rename(const stdfs::path& from,
                                             const stdfs::path& to) {
  delay(0);
  return inner_.rename(from, to);
}

Result<Unit, IoError> SlowFileSystem::create_directories(
    const stdfs::path& path) {
  delay(0);
  return inner_.create_directories(path);
}

Result<std::vector<stdfs::path>, IoError> SlowFileSystem::list_dir(
    const stdfs::path& dir) {
  delay(0);
  return inner_.list_dir(dir);
}

Result<std::vector<stdfs::path>, IoError> SlowFileSystem::list_tree(
    const stdfs::path& dir) {
  delay(0);
  return inner_.list_tree(dir);
}

Result<Unit, IoError> SlowFileSystem::remove_all(const stdfs::path& path) {
  delay(0);
  return inner_.remove_all(path);
}

bool SlowFileSystem::exists(const stdfs::path& path) {
  // Advisory, like file_size: not a latency point, so the schedulers'
  // cheap existence probes do not distort the model.
  return inner_.exists(path);
}

std::uintmax_t SlowFileSystem::file_size(const stdfs::path& path) {
  return inner_.file_size(path);
}

SlowStats SlowFileSystem::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace acx::storage
