#pragma once

#include <cstddef>
#include <span>
#include <type_traits>

#include "simt/sanitize/shadow.hpp"

namespace simt::sanitize {

template <typename T>
class TrackedSpan;

/// Proxy reference returned by TrackedSpan::operator[].  Reads (conversion
/// to value) and writes (assignment, increments) report to the slot's
/// shadow state; with no shadow attached it degrades to raw indexing, so
/// kernels written against TrackedSpan cost nothing when the sanitizer is
/// off.  An out-of-bounds proxy suppresses the underlying access entirely:
/// reads yield value-initialized T, writes are dropped — a detected bug
/// cannot corrupt the simulator's own heap.
template <typename T>
class TrackedRef {
    using V = std::remove_const_t<T>;

  public:
    TrackedRef(T* p, SlotShadow* shadow, MemSpace space, std::size_t byte_off,
               std::size_t view_bytes, bool oob)
        : p_(p), shadow_(shadow), byte_off_(byte_off), view_bytes_(view_bytes),
          space_(space), oob_(oob) {}

    TrackedRef(const TrackedRef&) = default;

    [[nodiscard]] V load() const {
        if (shadow_ != nullptr) return tracked_load();
        return *p_;
    }

    void store(V v) const {
        static_assert(!std::is_const_v<T>, "cannot write through a const tracked view");
        if (shadow_ != nullptr) {
            tracked_store(v);
            return;
        }
        *p_ = v;
    }

    operator V() const { return load(); }  // NOLINT(google-explicit-constructor)

    const TrackedRef& operator=(V v) const {
        store(v);
        return *this;
    }
    const TrackedRef& operator=(const TrackedRef& o) const {
        store(o.load());
        return *this;
    }
    template <typename U>
    const TrackedRef& operator=(const TrackedRef<U>& o) const {
        store(static_cast<V>(o.load()));
        return *this;
    }

    const TrackedRef& operator+=(V v) const { store(static_cast<V>(load() + v)); return *this; }
    const TrackedRef& operator-=(V v) const { store(static_cast<V>(load() - v)); return *this; }
    const TrackedRef& operator++() const { return *this += V{1}; }
    const TrackedRef& operator--() const { return *this -= V{1}; }
    V operator++(int) const {
        const V old = load();
        store(static_cast<V>(old + V{1}));
        return old;
    }
    V operator--(int) const {
        const V old = load();
        store(static_cast<V>(old - V{1}));
        return old;
    }

  private:
    // The recording paths stay out of line so that load() and store() are
    // always small enough to inline into kernel loops: a compiler that runs
    // out of inlining budget in a large translation unit would otherwise
    // leave a call per element access on the sanitizer-off path.
    [[gnu::noinline]] V tracked_load() const {
        if (oob_) {
            shadow_->record_oob(space_, byte_off_, view_bytes_, /*write=*/false);
            return V{};
        }
        record(/*write=*/false, /*atomic=*/false);
        return *p_;
    }

    [[gnu::noinline]] void tracked_store(V v) const {
        if (oob_) {
            shadow_->record_oob(space_, byte_off_, view_bytes_, /*write=*/true);
            return;
        }
        record(/*write=*/true, /*atomic=*/false);
        *p_ = v;
    }

    void record(bool write, bool atomic) const {
        if (space_ == MemSpace::Shared) {
            shadow_->record_shared(byte_off_, sizeof(T), write, atomic);
        } else {
            shadow_->record_global(p_, sizeof(T), write, atomic);
        }
    }

    template <typename U>
    friend class TrackedSpan;

    T* p_;
    SlotShadow* shadow_;
    std::size_t byte_off_;
    std::size_t view_bytes_;
    MemSpace space_;
    bool oob_;
};

/// Checked accessor view over a shared-arena or device-global range — the
/// sanitizer's replacement for std::span in kernel code.
///
/// With no shadow attached (sanitizer off, the default) every operation is
/// the raw std::span behavior, including unchecked indexing, so the default
/// path is bit-identical to pre-sanitizer builds.  With a shadow, indexed
/// accesses are bounds-checked against the view and recorded per 4-byte
/// word for race/init/bank analysis.
///
/// Escape hatches: data()/begin()/end()/raw() expose raw pointers for
/// std:: algorithms (std::lower_bound over splitters); accesses through
/// them are *not* tracked, which is fine for read-only probes of memory the
/// kernel initialized through tracked writes.
template <typename T>
class TrackedSpan {
  public:
    using value_type = std::remove_const_t<T>;
    using element_type = T;

    TrackedSpan() = default;

    TrackedSpan(std::span<T> s, SlotShadow* shadow, MemSpace space,
                std::size_t base_byte)
        : span_(s), shadow_(shadow), base_byte_(base_byte), space_(space) {}

    /// Untracked view (what a raw span would have been).
    explicit TrackedSpan(std::span<T> s) : span_(s) {}

    /// Mutable -> const view conversion.
    template <typename U>
        requires(std::is_const_v<T> && std::is_same_v<std::remove_const_t<T>, U>)
    TrackedSpan(const TrackedSpan<U>& o)  // NOLINT(google-explicit-constructor)
        : span_(o.raw()), shadow_(o.shadow()), base_byte_(o.base_byte()),
          space_(o.space()) {}

    [[nodiscard]] std::size_t size() const { return span_.size(); }
    [[nodiscard]] std::size_t size_bytes() const { return span_.size_bytes(); }
    [[nodiscard]] bool empty() const { return span_.empty(); }

    [[nodiscard, gnu::always_inline]] TrackedRef<T> operator[](std::size_t i) const {
        if (shadow_ == nullptr) return {span_.data() + i, nullptr, space_, 0, 0, false};
        return tracked_ref(span_, shadow_, space_, base_byte_, i);
    }

    /// Atomic read-modify-write (atomicAdd analog): recorded as an atomic
    /// access, which racecheck exempts from atomic-vs-atomic hazards.
    value_type atomic_fetch_add(std::size_t i, value_type delta) const {
        static_assert(!std::is_const_v<T>);
        if (shadow_ != nullptr) {
            if (i >= span_.size()) {
                shadow_->record_oob(space_, i * sizeof(T), span_.size_bytes(), true);
                return value_type{};
            }
            if (space_ == MemSpace::Shared) {
                shadow_->record_shared(base_byte_ + i * sizeof(T), sizeof(T), true, true);
            } else {
                shadow_->record_global(span_.data() + i, sizeof(T), true, true);
            }
        }
        const value_type old = span_[i];
        span_[i] = static_cast<value_type>(old + delta);
        return old;
    }

    [[nodiscard]] TrackedSpan subspan(std::size_t offset,
                                      std::size_t count = std::dynamic_extent) const {
        return {span_.subspan(offset, count), shadow_, space_,
                base_byte_ + offset * sizeof(T)};
    }
    [[nodiscard]] TrackedSpan first(std::size_t count) const { return subspan(0, count); }

    /// Raw escapes (untracked; see class comment).
    [[nodiscard]] T* data() const { return span_.data(); }
    [[nodiscard]] T* begin() const { return span_.data(); }
    [[nodiscard]] T* end() const { return span_.data() + span_.size(); }
    [[nodiscard]] std::span<T> raw() const { return span_; }
    operator std::span<T>() const { return span_; }  // NOLINT(google-explicit-constructor)

    [[nodiscard]] SlotShadow* shadow() const { return shadow_; }
    [[nodiscard]] MemSpace space() const { return space_; }
    [[nodiscard]] std::size_t base_byte() const { return base_byte_; }

  private:
    // Out of line, like TrackedRef's recording paths, so the sanitizer-off
    // index above stays small enough to force inline into kernel loops.
    // Static, taking the fields by value: the view's address never escapes.
    [[gnu::noinline]] static TrackedRef<T> tracked_ref(std::span<T> s, SlotShadow* shadow,
                                                       MemSpace space, std::size_t base_byte,
                                                       std::size_t i) {
        if (i >= s.size()) {
            return {s.data(), shadow, space, i * sizeof(T), s.size_bytes(), /*oob=*/true};
        }
        return {s.data() + i, shadow, space, base_byte + i * sizeof(T), s.size_bytes(),
                /*oob=*/false};
    }

    std::span<T> span_;
    SlotShadow* shadow_ = nullptr;
    std::size_t base_byte_ = 0;
    MemSpace space_ = MemSpace::Shared;
};

}  // namespace simt::sanitize
