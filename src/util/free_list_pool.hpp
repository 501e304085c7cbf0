// free_list_pool.hpp — lock-free free list of pooled scratch objects.
//
// A bounded array of atomic slots, each holding either null or a
// uniquely-owned pointer. acquire() claims a slot's pointer with one
// exchange, release() parks it back with one CAS — no mutex on the serving
// path, and no ABA window because a slot never holds the same pointer twice
// while anyone still references it (ownership transfers whole with the
// exchange). An empty pool allocates; a full pool deletes — both only off
// the warm path, so steady-state serving is allocation-free.
//
// Shared by the api::Session what-if and batch arenas, the dual build's
// punctured workspaces and the restricted replacement-table indexes (any
// default-constructible epoch-stamped arena qualifies).
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <memory>

namespace ftb {

template <class T>
class FreeListPool {
 public:
  FreeListPool() = default;
  FreeListPool(const FreeListPool&) = delete;
  FreeListPool& operator=(const FreeListPool&) = delete;
  ~FreeListPool() {
    for (auto& slot : slots_) {
      delete slot.load(std::memory_order_relaxed);
    }
  }

  std::unique_ptr<T> acquire() const {
    for (auto& slot : slots_) {
      if (slot.load(std::memory_order_relaxed) == nullptr) continue;
      if (T* p = slot.exchange(nullptr, std::memory_order_acq_rel)) {
        return std::unique_ptr<T>(p);
      }
    }
    return std::make_unique<T>();
  }

  void release(std::unique_ptr<T> obj) const {
    T* p = obj.release();
    for (auto& slot : slots_) {
      if (slot.load(std::memory_order_relaxed) != nullptr) continue;
      T* expected = nullptr;
      if (slot.compare_exchange_strong(expected, p,
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
        return;
      }
    }
    delete p;  // pool full — more objects than slots only under churn
  }

 private:
  // 64 slots comfortably exceed any plausible worker count; front-first
  // scans keep the hottest object (and its cached state) circulating.
  static constexpr std::size_t kSlots = 64;
  mutable std::array<std::atomic<T*>, kSlots> slots_{};
};

/// RAII lease so an exception inside a worker cannot leak the object.
template <class T>
class PoolLease {
 public:
  explicit PoolLease(const FreeListPool<T>& pool)
      : pool_(&pool), obj_(pool.acquire()) {}
  ~PoolLease() { pool_->release(std::move(obj_)); }
  PoolLease(const PoolLease&) = delete;
  PoolLease& operator=(const PoolLease&) = delete;
  T& operator*() const { return *obj_; }
  T* operator->() const { return obj_.get(); }

 private:
  const FreeListPool<T>* pool_;
  std::unique_ptr<T> obj_;
};

}  // namespace ftb
