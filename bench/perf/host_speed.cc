#include "bench/perf/host_speed.h"

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <functional>
#include <vector>

namespace fsio {
namespace perf {
namespace {

constexpr std::uint32_t kTableLog2 = 25;  // 2^25 x 4 B = 128 MB
constexpr std::size_t kHeapEntries = 4096;

bool SendAll(int fd, const void* data, std::size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t sent = send(fd, p, n, MSG_NOSIGNAL);
    if (sent <= 0) {
      return false;
    }
    p += sent;
    n -= static_cast<std::size_t>(sent);
  }
  return true;
}

bool RecvAll(int fd, void* data, std::size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t got = recv(fd, p, n, 0);
    if (got <= 0) {
      return false;
    }
    p += got;
    n -= static_cast<std::size_t>(got);
  }
  return true;
}

// `iterations` table updates and heap operations over the first
// 2^table_log2 entries of the table. The xorshift stream restarts every
// time, so every call does the same work; the table keeps its contents
// across calls, which changes values but not the access pattern.
std::uint64_t TableAndHeap(std::uint32_t table_log2, int iterations,
                           std::vector<std::uint32_t>* table, std::vector<std::uint64_t>* heap) {
  const std::uint64_t mask = (1ULL << table_log2) - 1;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  std::uint64_t acc = 0;
  heap->clear();
  for (int i = 0; i < iterations; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint32_t& a = (*table)[(x >> 17) & mask];
    std::uint32_t& b = (*table)[(x >> 37) & mask];
    a += static_cast<std::uint32_t>(x);
    b ^= a;
    heap->push_back((x & 0xffffffULL) + a);
    std::push_heap(heap->begin(), heap->end(), std::greater<>());
    if (heap->size() > kHeapEntries) {
      std::pop_heap(heap->begin(), heap->end(), std::greater<>());
      acc += heap->back();
      heap->pop_back();
    }
  }
  return acc;
}

// One timed reference loop: a phase over the whole table, whose accesses
// mostly miss the last-level cache, and a phase over its first 256 KB,
// which stays in the core's own caches. The simulator touches data of both
// kinds, and other tenants can slow either; the two phases take about the
// same time, so the loop's time weighs them evenly.
double ReferenceLoopMs(std::vector<std::uint32_t>* table, std::vector<std::uint64_t>* heap,
                       std::uint64_t* sink) {
  const auto start = std::chrono::steady_clock::now();
  *sink += TableAndHeap(kTableLog2, 6'000, table, heap);
  *sink += TableAndHeap(16, 18'000, table, heap);
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
      .count();
}

// The helper's main loop: one reference loop per request byte, until the
// measured process closes its end.
[[noreturn]] void HelperMain(int fd) {
  std::vector<std::uint32_t> table(std::size_t{1} << kTableLog2, 1);
  std::vector<std::uint64_t> heap;
  heap.reserve(kHeapEntries + 1);
  std::uint64_t sink = 0;
  char request = 0;
  while (RecvAll(fd, &request, 1)) {
    const double ms = ReferenceLoopMs(&table, &heap, &sink);
    if (!SendAll(fd, &ms, sizeof(ms))) {
      break;
    }
  }
  // Exiting on the sink keeps the loops' results live, so the compiler
  // cannot drop their work; nothing reads the exit status.
  _exit(sink == 1 ? 1 : 0);
}

}  // namespace

bool HostSpeedRef::Start() {
  int fds[2];
  if (socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    return false;
  }
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return false;
  }
  if (pid == 0) {
    close(fds[0]);
    HelperMain(fds[1]);
  }
  close(fds[1]);
  pid_ = pid;
  fd_ = fds[0];
  return true;
}

double HostSpeedRef::RunMs() {
  const char request = 1;
  double ms = -1.0;
  if (fd_ < 0 || !SendAll(fd_, &request, 1) || !RecvAll(fd_, &ms, sizeof(ms))) {
    return -1.0;
  }
  return ms;
}

HostSpeedRef::~HostSpeedRef() {
  if (fd_ >= 0) {
    close(fd_);  // the helper sees end-of-file and exits
  }
  if (pid_ > 0) {
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
}

}  // namespace perf
}  // namespace fsio
