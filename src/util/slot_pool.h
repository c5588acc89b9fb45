// Fixed-size slot pools and the allocator over them, for the many small,
// same-sized, long-lived objects of a cache (the result store's entries
// and their shared results). A slot carries no allocator header, and every
// slot of one size comes from one process-wide pool rather than from the
// per-thread arena of whichever worker allocated it, so a store that grows
// from several threads does not fragment across their arenas. Freed slots
// are recycled; slabs are never returned to the system.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <mutex>
#include <new>
#include <vector>

namespace nwdec {

namespace detail {

template <std::size_t Size, std::size_t Align>
class slot_pool {
 public:
  /// The process-wide pool for this slot size. Never destroyed, so a slot
  /// released during static destruction still has a pool to return to.
  static slot_pool& get() {
    static slot_pool* const pool = new slot_pool;
    return *pool;
  }

  void* take() {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (free_ == nullptr) grow();
    node* slot = free_;
    free_ = slot->next;
    return slot;
  }

  void give(void* slot) noexcept {
    const std::lock_guard<std::mutex> lock(mutex_);
    node* back = static_cast<node*>(slot);
    back->next = free_;
    free_ = back;
  }

 private:
  struct node {
    node* next;
  };
  static constexpr std::size_t slot_align = std::max(Align, alignof(node));
  static constexpr std::size_t slot_size =
      (std::max(Size, sizeof(node)) + slot_align - 1) / slot_align *
      slot_align;
  static constexpr std::size_t slab_bytes = 64 * 1024;

  // Caller holds mutex_.
  void grow() {
    auto* slab = static_cast<unsigned char*>(
        ::operator new(slab_bytes, std::align_val_t{slot_align}));
    slabs_.push_back(slab);
    for (std::size_t at = 0; at + slot_size <= slab_bytes; at += slot_size) {
      node* slot = reinterpret_cast<node*>(slab + at);
      slot->next = free_;
      free_ = slot;
    }
  }

  std::mutex mutex_;
  node* free_ = nullptr;               ///< guarded by mutex_
  std::vector<unsigned char*> slabs_;  ///< guarded by mutex_; kept reachable
};

}  // namespace detail

/// Allocates single objects from the slot pool of their size (arrays, such
/// as a hash table's buckets, from the default allocator). Stateless: every
/// instance shares the pools.
template <typename T>
class slot_allocator {
 public:
  using value_type = T;

  slot_allocator() = default;
  template <typename U>
  slot_allocator(const slot_allocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n != 1) return std::allocator<T>().allocate(n);
    return static_cast<T*>(
        detail::slot_pool<sizeof(T), alignof(T)>::get().take());
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (n != 1) {
      std::allocator<T>().deallocate(p, n);
      return;
    }
    detail::slot_pool<sizeof(T), alignof(T)>::get().give(p);
  }

  friend bool operator==(const slot_allocator&, const slot_allocator&) {
    return true;
  }
};

}  // namespace nwdec
