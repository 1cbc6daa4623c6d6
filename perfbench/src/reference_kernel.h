// The reference kernel: a fixed amount of host work whose run time measures
// how fast the host is at the moment, independent of the library.
//
// On a shared machine the same simulation can take 25% longer or shorter
// from one second to the next. perfbench/run.py runs this kernel in its own
// process between the workload's repetitions and expresses every host time
// in reference seconds (see README.md). The kernel is frozen with the
// benchmark: changing it changes every host-time metric. Its two halves take
// about the same time and slow down differently when other tenants load the
// host, so together they track all three workloads:
//   - mixed: random reads over a 64 MiB array, ordered-map lookups, a
//     bounded binary heap and a short list walk (tracks cell-market and
//     storm-overload);
//   - cells: 256 small "cells", each an ordered index, an LRU list and a
//     heap over 512 keys, allocated interleaved and updated with
//     remove-and-append LRU scans on random cells (tracks fleet-1024, whose
//     cells each hold the whole 512-model market).

#ifndef PERFBENCH_REFERENCE_KERNEL_H_
#define PERFBENCH_REFERENCE_KERNEL_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <queue>
#include <vector>

#include "spans.h"

namespace perfbench {

class ReferenceKernel {
 public:
  ReferenceKernel() : table_(size_t{1} << 24), cells_(256) {
    uint64_t x = 7;
    for (uint32_t& v : table_) {
      x = Next(x);
      v = static_cast<uint32_t>(x >> 32);
    }
    for (uint32_t i = 0; i < 4096; ++i) {
      x = Next(x);
      tree_[static_cast<uint32_t>(x >> 32)] = i;
    }
    for (uint32_t i = 0; i < 512; ++i) {
      list_.push_back(i);
    }
    for (uint32_t key = 0; key < 512; ++key) {
      for (Cell& cell : cells_) {
        cell.index[key] = key;
        cell.lru.push_back(key);
      }
    }
  }

  // Host seconds one pass takes. Passes update the cells' LRU order, so a
  // pass's work depends on how many passes came before it; callers time
  // the same pass (the second) every time.
  double TimedPass() {
    const Clock::time_point start = Clock::now();
    uint64_t x = 12345, acc = 0;
    std::priority_queue<uint64_t, std::vector<uint64_t>, std::greater<uint64_t>> heap;
    for (int i = 0; i < 200000; ++i) {
      x = Next(x);
      acc += table_[(x >> 20) & (table_.size() - 1)];
      const auto it = tree_.lower_bound(static_cast<uint32_t>(x >> 32));
      if (it != tree_.end()) {
        acc += it->second;
      }
      heap.push(acc ^ (x >> 7));
      if (heap.size() > 2048) {
        heap.pop();
      }
      if ((i & 63) == 0) {
        for (uint32_t v : list_) {
          acc += v;
        }
      }
    }
    for (int i = 0; i < 1200; ++i) {
      x = Next(x);
      Cell& cell = cells_[(x >> 33) % cells_.size()];
      const uint32_t key = static_cast<uint32_t>((x >> 45) % 512);
      acc += cell.index.find(key)->second;
      cell.lru.remove(key);
      cell.lru.push_back(key);
      cell.heap.push_back(x);
      std::push_heap(cell.heap.begin(), cell.heap.end());
      if (cell.heap.size() > 64) {
        std::pop_heap(cell.heap.begin(), cell.heap.end());
        cell.heap.pop_back();
      }
    }
    const double seconds = SecondsSince(start);
    sink_ = acc + heap.top();
    return seconds;
  }

 private:
  struct Cell {
    std::map<uint32_t, uint32_t> index;
    std::list<uint32_t> lru;
    std::vector<uint64_t> heap;
  };

  static uint64_t Next(uint64_t x) {
    return x * 6364136223846793005ull + 1442695040888963407ull;
  }

  std::vector<uint32_t> table_;  // 64 MiB
  std::map<uint32_t, uint32_t> tree_;
  std::list<uint32_t> list_;
  std::vector<Cell> cells_;
  volatile uint64_t sink_ = 0;  // keeps the pass from being elided
};

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_KERNEL_H_
