/**
 * @file
 * Read-only view of a contiguous run of elements, the C++17 stand-in
 * for std::span<const T>. Flat (CSR) adjacency structures hand out
 * one of these per vertex instead of owning a vector per vertex.
 */

#ifndef HELIX_UTIL_SPAN_H
#define HELIX_UTIL_SPAN_H

#include <cstddef>

namespace helix {

/** Non-owning view of [first, last); valid while the owner is
 *  neither mutated nor destroyed. */
template <typename T>
class Span
{
  public:
    Span() = default;
    Span(const T *first, const T *last) : head(first), tail(last) {}

    [[nodiscard]] const T *begin() const { return head; }
    [[nodiscard]] const T *end() const { return tail; }
    [[nodiscard]] size_t size() const
    {
        return static_cast<size_t>(tail - head);
    }
    const T &operator[](size_t i) const { return head[i]; }

  private:
    const T *head = nullptr;
    const T *tail = nullptr;
};

} // namespace helix

#endif // HELIX_UTIL_SPAN_H
