/**
 * @file
 * Dense, reusable scratch tables for the pass kernels.
 *
 * Register ids are dense (1..numRegs-1), and so are block and object
 * indices, so the optimizer and sanitizer passes keep their facts in
 * flat arrays indexed by id instead of node-based maps. One table lives
 * in a pass object (or in one sanitizer pass invocation) and is reused
 * for every block, function and round that object sees: after the
 * first few blocks it never allocates again.
 */

#ifndef UBFUZZ_IR_REG_TABLE_H
#define UBFUZZ_IR_REG_TABLE_H

#include <algorithm>
#include <cstdint>
#include <vector>

namespace ubfuzz::ir {

/**
 * A map from a dense id to T whose reset() forgets every entry in O(1).
 * Each slot carries the epoch it was written in; a slot holds a value
 * only while its stamp equals the current epoch, so reset() just bumps
 * the epoch. When the epoch wraps, every stamp is cleared once. An id
 * at or above the size passed to reset() grows the table, so no index
 * is ever unchecked. @p Stamp is a template parameter only so tests can
 * reach the wrap with a narrow one.
 */
template <typename T, typename Stamp = uint32_t>
class RegTable
{
  public:
    /** Forget every entry, and make room for ids below @p numIds. */
    void
    reset(uint32_t numIds)
    {
        if (++epoch_ == 0) {
            for (Slot &s : slots_)
                s.stamp = 0;
            epoch_ = 1;
        }
        if (slots_.size() < numIds)
            slots_.resize(numIds);
    }

    /** The entry for @p id, or nullptr when it has none. */
    const T *
    find(uint32_t id) const
    {
        if (id >= slots_.size() || slots_[id].stamp != epoch_)
            return nullptr;
        return &slots_[id].value;
    }

    bool contains(uint32_t id) const { return find(id) != nullptr; }

    /** Set (or overwrite) the entry for @p id. */
    void
    set(uint32_t id, const T &value)
    {
        Slot &s = slot(id);
        s.stamp = epoch_;
        s.value = value;
    }

    /** The entry for @p id, value-initialized first if it has none. */
    T &
    at(uint32_t id)
    {
        Slot &s = slot(id);
        if (s.stamp != epoch_) {
            s.stamp = epoch_;
            s.value = T{};
        }
        return s.value;
    }

  private:
    struct Slot
    {
        Stamp stamp = 0;
        T value{};
    };

    Slot &
    slot(uint32_t id)
    {
        if (id >= slots_.size())
            slots_.resize(std::max<size_t>(size_t{id} + 1,
                                           slots_.size() * 2));
        return slots_[id];
    }

    std::vector<Slot> slots_;
    /** Never 0, so a fresh slot (stamp 0) is always empty. */
    Stamp epoch_ = 1;
};

} // namespace ubfuzz::ir

#endif // UBFUZZ_IR_REG_TABLE_H
