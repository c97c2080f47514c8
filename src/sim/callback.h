// EventFn: the callable payload of a scheduled event.
//
// The hot path of the simulator executes tens of millions of small closures
// (a Link delivering a packet, a Switch forwarding, a TCP timer firing).
// `std::function<void()>` pays a heap allocation for most of these because
// its small-buffer window (typically 16 bytes on libstdc++) is smaller than
// a captured Packet. EventFn is a move-only type-erased callable with an
// inline buffer sized for the captures this codebase actually schedules:
// `this` + a Packet (the Link/Switch delivery closures) fits with room to
// spare, so the common case allocates nothing. Larger or throwing-move
// callables transparently fall back to a heap box.
//
// Move-only on purpose: scheduled closures are executed exactly once and
// never copied, and accepting move-only captures lets call sites move
// Packets instead of copying them.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace esim::sim {

class EventFn {
 public:
  /// Inline capture budget. `this` + Packet (~80 bytes) must fit: every
  /// per-packet closure in src/net stays on the no-allocation path.
  static constexpr std::size_t kInlineSize = 88;

  EventFn() noexcept = default;

  /// Wraps any `void()` callable. Small nothrow-movable callables are
  /// stored inline; the rest go to the heap.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, EventFn> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  EventFn(F&& f) {  // NOLINT(google-explicit-constructor)
    using D = std::decay_t<F>;
    if constexpr (sizeof(D) <= kInlineSize &&
                  alignof(D) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<D>) {
      ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
      ops_ = &inline_ops<D>;
    } else {
      ::new (static_cast<void*>(storage_)) D*(new D(std::forward<F>(f)));
      ops_ = &boxed_ops<D>;
    }
  }

  EventFn(EventFn&& other) noexcept : ops_{other.ops_} {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  EventFn& operator=(EventFn&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  EventFn(const EventFn&) = delete;
  EventFn& operator=(const EventFn&) = delete;

  ~EventFn() { reset(); }

  /// Invokes the wrapped callable. Requires a non-empty EventFn.
  void operator()() { ops_->invoke(storage_); }

  /// True when a callable is held.
  explicit operator bool() const noexcept { return ops_ != nullptr; }

  /// Drops the wrapped callable (if any), leaving the EventFn empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

 private:
  struct Ops {
    void (*invoke)(void* self);
    /// Move-constructs the payload from `src` into `dst` and tears down
    /// `src`. For boxed payloads this is a pointer copy.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename D>
  static constexpr Ops inline_ops{
      [](void* self) { (*std::launder(static_cast<D*>(self)))(); },
      [](void* dst, void* src) noexcept {
        D* from = std::launder(static_cast<D*>(src));
        ::new (dst) D(std::move(*from));
        from->~D();
      },
      [](void* self) noexcept { std::launder(static_cast<D*>(self))->~D(); },
  };

  template <typename D>
  static constexpr Ops boxed_ops{
      [](void* self) { (**std::launder(static_cast<D**>(self)))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) D*(*std::launder(static_cast<D**>(src)));
      },
      [](void* self) noexcept { delete *std::launder(static_cast<D**>(self)); },
  };

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) std::byte storage_[kInlineSize];
};

}  // namespace esim::sim
