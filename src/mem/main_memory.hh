/**
 * @file
 * Paged word-addressed main memory.
 *
 * The image is a page table over fixed pages.  Every entry starts out
 * pointing at one shared, read-only zero page; a page gets a frame of
 * its own on its first store.  So building or freeing an image costs
 * its page tables plus the pages the program actually wrote, not a
 * zero-fill of the whole address space, and digest() reads only the
 * written pages.
 */

#ifndef PE_MEM_MAIN_MEMORY_HH
#define PE_MEM_MAIN_MEMORY_HH

#include <cstdint>
#include <memory>
#include <vector>

namespace pe::mem
{

/** Words per page: 4 KB pages of 4-byte words. */
constexpr uint32_t pageWords = 1024;

/**
 * The architected memory image: committed state only.  Uncommitted
 * path state (NT-Paths and, in CMP mode, taken-path segments) lives in
 * VersionedBuffer overlays on top of this.
 *
 * Unwritten words read 0.  The zero page behind them is the only
 * object that images share, and nothing ever writes it, so images on
 * different threads need no locking.
 */
class MainMemory
{
  public:
    explicit MainMemory(uint32_t words);

    bool valid(uint32_t addr) const { return addr < _size; }
    uint32_t size() const { return _size; }

    /** Bounds-checked read; out-of-range addresses panic. */
    int32_t read(uint32_t addr) const;
    /** Bounds-checked write; out-of-range addresses panic. */
    void write(uint32_t addr, int32_t value);

    /**
     * Unchecked read for callers that have already established
     * bounds: two dependent loads, no branch.
     */
    int32_t load(uint32_t addr) const
    {
        return view[addr / pageWords][addr % pageWords];
    }

    /**
     * Unchecked write for callers that have already established
     * bounds: one compare more than a flat store, and the page's frame
     * is allocated on its first write.
     */
    void store(uint32_t addr, int32_t value)
    {
        int32_t *frame = frames[addr / pageWords].get();
        if (!frame) [[unlikely]]
            frame = allocate(addr / pageWords);
        frame[addr % pageWords] = value;
    }

    /**
     * FNV-1a digest of the image in four independent lanes over 64-bit
     * chunks (8 words per step), the leftover words folded in one at a
     * time.  Only written pages are read: an unwritten page's 8-word
     * groups are all zero, and each of them only multiplies every lane
     * by the FNV prime.
     */
    uint64_t digest() const;

    /** Pages holding a frame of their own (written at least once). */
    uint32_t pagesWritten() const;

  private:
    int32_t *allocate(uint32_t page);

    uint32_t _size;
    /** Per page: its frame once written, else the shared zero page. */
    std::vector<const int32_t *> view;
    /** Per page: the owned frame, null until the page is written. */
    std::vector<std::unique_ptr<int32_t[]>> frames;
};

} // namespace pe::mem

#endif // PE_MEM_MAIN_MEMORY_HH
