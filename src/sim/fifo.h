// Single-ended FIFO queue: push at the back, pop at the front, iterate front
// to back. A power-of-two ring buffer that allocates nothing until the first
// push_back and doubles when full; it never shrinks.
//
// This replaces std::deque for the simulator's per-connection and per-host
// queues (send/receive boundaries, NIC backlog, CPU work, switch ports).
// libstdc++'s deque allocates a map and a ~512-byte node as soon as it is
// constructed, which costs a fleet of mostly idle connections several KB
// each (DESIGN.md §16). Unlike deque, push_back may move every element, so
// references and iterators do not survive a push_back.

#ifndef SRC_SIM_FIFO_H_
#define SRC_SIM_FIFO_H_

#include <cstddef>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>

namespace e2e {

template <typename T>
class Fifo {
  static_assert(std::is_nothrow_move_constructible_v<T>, "growth moves elements");

  template <bool kConst>
  class Iter {
    using Owner = std::conditional_t<kConst, const Fifo, Fifo>;

   public:
    Iter(Owner* fifo, size_t index) : fifo_(fifo), index_(index) {}
    auto& operator*() const { return fifo_->At(index_); }
    Iter& operator++() {
      ++index_;
      return *this;
    }
    bool operator==(const Iter& other) const = default;

   private:
    Owner* fifo_;
    size_t index_;
  };

 public:
  Fifo() = default;
  Fifo(Fifo&& other) noexcept
      : slots_(std::exchange(other.slots_, nullptr)),
        capacity_(std::exchange(other.capacity_, 0)),
        head_(std::exchange(other.head_, 0)),
        size_(std::exchange(other.size_, 0)) {}
  Fifo& operator=(Fifo&& other) noexcept {
    Fifo(std::move(other)).swap(*this);
    return *this;
  }
  ~Fifo() {
    while (size_ > 0) {
      pop_front();
    }
    Deallocate();
  }

  bool empty() const { return size_ == 0; }
  size_t size() const { return size_; }
  // Element slots allocated: 0 until the first push_back.
  size_t capacity() const { return capacity_; }
  T& front() { return At(0); }
  const T& front() const { return At(0); }
  T& back() { return At(size_ - 1); }
  const T& back() const { return At(size_ - 1); }

  void push_back(const T& value) { emplace_back(value); }
  void push_back(T&& value) { emplace_back(std::move(value)); }
  template <typename... Args>
  T& emplace_back(Args&&... args) {
    if (size_ < capacity_) {
      ::new (Slot(size_)) T(std::forward<Args>(args)...);
    } else {
      // Construct the new element first: `args` may alias an element.
      const size_t capacity = capacity_ == 0 ? kInitialCapacity : capacity_ * 2;
      T* slots = std::allocator<T>().allocate(capacity);
      ::new (slots + size_) T(std::forward<Args>(args)...);
      for (size_t i = 0; i < size_; ++i) {
        ::new (slots + i) T(std::move(At(i)));
        At(i).~T();
      }
      Deallocate();
      slots_ = slots;
      capacity_ = capacity;
      head_ = 0;
    }
    return At(size_++);
  }

  void pop_front() {
    At(0).~T();
    head_ = (head_ + 1) & (capacity_ - 1);
    --size_;
  }

  Iter<false> begin() { return {this, 0}; }
  Iter<false> end() { return {this, size_}; }
  Iter<true> begin() const { return {this, 0}; }
  Iter<true> end() const { return {this, size_}; }

 private:
  static constexpr size_t kInitialCapacity = 4;

  void swap(Fifo& other) noexcept {
    std::swap(slots_, other.slots_);
    std::swap(capacity_, other.capacity_);
    std::swap(head_, other.head_);
    std::swap(size_, other.size_);
  }

  T* Slot(size_t i) const { return slots_ + ((head_ + i) & (capacity_ - 1)); }
  T& At(size_t i) { return *Slot(i); }
  const T& At(size_t i) const { return *Slot(i); }
  void Deallocate() {
    if (slots_ != nullptr) {
      std::allocator<T>().deallocate(slots_, capacity_);
    }
  }

  T* slots_ = nullptr;
  size_t capacity_ = 0;  // Zero or a power of two.
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace e2e

#endif  // SRC_SIM_FIFO_H_
