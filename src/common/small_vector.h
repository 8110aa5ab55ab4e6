// SmallVector: a vector with inline storage for the first N elements.
//
// The memo's GroupExpr child lists and the property search's partitioning
// and sort keys are the hottest allocation sites of a compile — almost every
// operator has <= 4 inputs and keys, so keeping them inline removes a heap
// round-trip per memo expression, dedup probe and costed option.
// Only trivially copyable element types are supported; that keeps copies,
// moves and destruction branch-free memcpy-style loops.
#ifndef QSTEER_COMMON_SMALL_VECTOR_H_
#define QSTEER_COMMON_SMALL_VECTOR_H_

#include <algorithm>
#include <cstddef>
#include <initializer_list>
#include <memory>
#include <type_traits>
#include <vector>

namespace qsteer {

template <typename T, size_t N>
class SmallVector {
  static_assert(std::is_trivially_copyable_v<T>,
                "SmallVector only supports trivially copyable elements");
  static_assert(N > 0, "inline capacity must be at least 1");

 public:
  using value_type = T;
  using iterator = T*;
  using const_iterator = const T*;

  SmallVector() = default;

  SmallVector(std::initializer_list<T> init) { Assign(init.begin(), init.size()); }

  /// Implicit conversion from std::vector keeps existing call sites (tests,
  /// rule code) source-compatible.
  SmallVector(const std::vector<T>& from) { Assign(from.data(), from.size()); }  // NOLINT

  SmallVector(const SmallVector& other) { Assign(other.data(), other.size_); }

  SmallVector(SmallVector&& other) noexcept {
    if (other.heap_ != nullptr) {
      heap_ = std::move(other.heap_);
      capacity_ = other.capacity_;
      size_ = other.size_;
      other.capacity_ = N;
      other.size_ = 0;
    } else {
      Assign(other.inline_, other.size_);
      other.size_ = 0;
    }
  }

  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) Assign(other.data(), other.size_);
    return *this;
  }

  SmallVector& operator=(SmallVector&& other) noexcept {
    if (this == &other) return *this;
    if (other.heap_ != nullptr) {
      heap_ = std::move(other.heap_);
      capacity_ = other.capacity_;
      size_ = other.size_;
      other.capacity_ = N;
      other.size_ = 0;
    } else {
      heap_.reset();
      capacity_ = N;
      Assign(other.inline_, other.size_);
      other.size_ = 0;
    }
    return *this;
  }

  ~SmallVector() = default;

  T* data() { return heap_ != nullptr ? heap_.get() : inline_; }
  const T* data() const { return heap_ != nullptr ? heap_.get() : inline_; }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return capacity_; }

  iterator begin() { return data(); }
  iterator end() { return data() + size_; }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }

  T& operator[](size_t i) { return data()[i]; }
  const T& operator[](size_t i) const { return data()[i]; }
  T& back() { return data()[size_ - 1]; }
  const T& back() const { return data()[size_ - 1]; }

  void clear() { size_ = 0; }

  void reserve(size_t wanted) {
    if (wanted > capacity_) Grow(wanted);
  }

  void push_back(const T& value) {
    // Copy first: `value` may live in the buffer Grow frees.
    const T copy = value;
    if (size_ == capacity_) Grow(capacity_ * 2);
    data()[size_++] = copy;
  }

  bool operator==(const SmallVector& other) const {
    return size_ == other.size_ && std::equal(begin(), end(), other.begin());
  }
  bool operator!=(const SmallVector& other) const { return !(*this == other); }

 private:
  void Assign(const T* from, size_t count) {
    reserve(count);
    std::copy(from, from + count, data());
    size_ = count;
  }

  void Grow(size_t wanted) {
    size_t capacity = std::max(wanted, capacity_ * 2);
    auto grown = std::make_unique<T[]>(capacity);
    std::copy(data(), data() + size_, grown.get());
    heap_ = std::move(grown);
    capacity_ = capacity;
  }

  T inline_[N] = {};
  std::unique_ptr<T[]> heap_;
  size_t capacity_ = N;
  size_t size_ = 0;
};

}  // namespace qsteer

#endif  // QSTEER_COMMON_SMALL_VECTOR_H_
