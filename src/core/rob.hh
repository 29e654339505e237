/**
 * @file
 * Ring-buffer reorder buffer with O(1) seq-validated slot references.
 *
 * One ring holds the whole in-flight window: the renamed region (the ROB
 * proper, [head, head+robSize)) followed by the fetch buffer
 * ([head+robSize, head+total)). Fetch constructs instructions in place at
 * the tail, rename *promotes* the fetch-buffer front into the ROB by
 * bumping a counter — no copy, no pointer movement — commit pops at the
 * head and squash pops at the tail. Entries therefore occupy one slot for
 * their entire lifetime, so the rest of the core can hold raw pointers
 * (issue-queue ready lists) or (slot, seq) references (completion events,
 * wakeup waiter lists, PPRF flush pointers) instead of re-finding
 * instructions by binary search every cycle.
 *
 * A (slot, seq) reference stays safe after the instruction is squashed or
 * committed: popping a slot stamps it with invalidSeqNum, and sequence
 * numbers are never reused, so @ref RobRing::at simply compares the stored
 * seq — a mismatch means "that instruction is gone".
 */

#ifndef PP_CORE_ROB_HH
#define PP_CORE_ROB_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "core/dyninst.hh"

namespace pp
{
namespace core
{

/** Fixed-capacity ring of stable DynInst slots (ROB + fetch buffer). */
class RobRing
{
  public:
    /** Size the ring for @p capacity entries (rounded up to 2^n). */
    void
    init(unsigned capacity)
    {
        cap_ = 1;
        while (cap_ < capacity)
            cap_ <<= 1;
        mask_ = cap_ - 1;
        slots_.assign(cap_, DynInst{});
        head_ = 0;
        renamed_ = 0;
        total_ = 0;
    }

    /** Renamed (ROB-proper) occupancy. */
    std::size_t robSize() const { return renamed_; }

    /** Fetched-but-not-renamed (fetch buffer) occupancy. */
    std::size_t feSize() const { return total_ - renamed_; }

    /** All in-flight entries. */
    std::size_t total() const { return total_; }

    /** Slot count (a power of two): every slot index is below it. */
    std::size_t capacity() const { return cap_; }

    /** Oldest renamed instruction (commit candidate). @pre robSize()>0 */
    DynInst &front() { return slots_[head_]; }
    const DynInst &front() const { return slots_[head_]; }

    /** Youngest in-flight instruction. @pre total()>0 */
    DynInst &back() { return slots_[(head_ + total_ - 1) & mask_]; }
    const DynInst &
    back() const
    {
        return slots_[(head_ + total_ - 1) & mask_];
    }

    /** Oldest fetch-buffer instruction (rename candidate). */
    DynInst &feFront() { return slots_[(head_ + renamed_) & mask_]; }

    /**
     * Fetch: claim the tail slot, reset it, and return it for in-place
     * construction. The slot index is in DynInst::robSlot.
     */
    DynInst &
    emplaceBack()
    {
        panicIfNot(total_ < cap_, "ROB ring overflow");
        const std::uint32_t slot = (head_ + total_) & mask_;
        slots_[slot] = DynInst{};
        slots_[slot].robSlot = slot;
        ++total_;
        return slots_[slot];
    }

    /** Rename: the fetch-buffer front becomes the ROB tail. No copy. */
    void promoteFront() { ++renamed_; }

    /** Commit pop. Invalidates (slot, seq) references to the head. */
    void
    popFront()
    {
        slots_[head_].seq = invalidSeqNum;
        head_ = (head_ + 1) & mask_;
        --renamed_;
        --total_;
    }

    /** Squash pop (renamed or fetch-buffer tail alike). */
    void
    popBack()
    {
        slots_[(head_ + total_ - 1) & mask_].seq = invalidSeqNum;
        if (total_ == renamed_)
            --renamed_;
        --total_;
    }

    /**
     * O(1) lookup: the instruction @p seq if it still occupies @p slot,
     * nullptr if it has been squashed or committed since the reference
     * was taken.
     */
    DynInst *
    at(std::uint32_t slot, InstSeqNum seq)
    {
        DynInst &d = slots_[slot];
        return d.seq == seq ? &d : nullptr;
    }

    /** Entry @p i positions behind the head (0 = oldest in flight). */
    DynInst &atIndex(std::size_t i) { return slots_[(head_ + i) & mask_]; }
    const DynInst &
    atIndex(std::size_t i) const
    {
        return slots_[(head_ + i) & mask_];
    }

    /** Visit every in-flight entry (ROB then fetch buffer), oldest to
     * youngest — i.e. global age order. */
    template <typename F>
    void
    forEach(F &&f)
    {
        for (std::uint32_t i = 0; i < total_; ++i)
            f(slots_[(head_ + i) & mask_]);
    }

  private:
    std::vector<DynInst> slots_;
    std::uint32_t cap_ = 0;
    std::uint32_t mask_ = 0;
    std::uint32_t head_ = 0;
    std::uint32_t renamed_ = 0;
    std::uint32_t total_ = 0;
};

/**
 * Fixed-capacity FIFO with deque-style ends (the load and store queues).
 * Storage is sized once by init(); pushing past the capacity is a bug,
 * since rename admits an entry only while the queue has room.
 */
template <typename T>
class FixedRing
{
  public:
    /** Size the ring for @p capacity entries (rounded up to 2^n). */
    void
    init(std::size_t capacity)
    {
        std::size_t cap = 1;
        while (cap < capacity)
            cap <<= 1;
        buf_.assign(cap, T{});
        mask_ = cap - 1;
        head_ = 0;
        size_ = 0;
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }

    /** Entry @p i positions behind the front. */
    T &operator[](std::size_t i) { return buf_[(head_ + i) & mask_]; }

    T &front() { return buf_[head_]; }
    T &back() { return buf_[(head_ + size_ - 1) & mask_]; }

    void
    push_back(const T &v)
    {
        panicIfNot(size_ <= mask_, "fixed ring overflow");
        buf_[(head_ + size_) & mask_] = v;
        ++size_;
    }

    void
    pop_front()
    {
        head_ = (head_ + 1) & mask_;
        --size_;
    }

    void pop_back() { --size_; }

  private:
    std::vector<T> buf_;
    std::size_t mask_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace core
} // namespace pp

#endif // PP_CORE_ROB_HH
