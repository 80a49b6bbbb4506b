/**
 * @file
 * Versioned write buffers: the simulator model of the paper's
 * Vtag-tagged L1 cache lines.
 *
 * In the standard configuration, an NT-Path's stores are buffered in
 * the L1 cache and bookmarked with a 1-bit Volatile tag; squashing the
 * path gang-invalidates those lines (paper Section 4.2).  With the CMP
 * optimization every path (taken-path segment or NT-Path) owns an
 * 8-bit path ID and its lines are tagged with it (Section 4.3).
 *
 * Functionally both reduce to the same thing: an overlay of dirty
 * words on top of a parent version.  VersionedBuffer implements that
 * overlay; the path-ID plumbing and the commit/squash-token protocol
 * live in the PathExpander engine.
 *
 * The overlay is stored the way the modeled hardware stores it: as
 * whole L1 lines.  An open-addressing table maps a line number to an
 * 8-word data block plus a dirty-word mask, so the per-store hot path
 * is one probe (no per-word hashing), squash is a gang reset of the
 * table, and commit is a linear scan over the occupied lines.
 */

#ifndef PE_MEM_VERSIONED_BUFFER_HH
#define PE_MEM_VERSIONED_BUFFER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "src/mem/main_memory.hh"

namespace pe::mem
{

/** Words per cache line (32 bytes / 4-byte words, per Table 2). */
constexpr uint32_t wordsPerLine = 8;

/** One path's speculative write set. */
class VersionedBuffer
{
  public:
    /** @param id the 8-bit path ID (0 is reserved for committed). */
    explicit VersionedBuffer(int id) : _pathId(id) {}

    int pathId() const { return _pathId; }

    const VersionedBuffer *parent() const { return _parent; }
    VersionedBuffer *parent() { return _parent; }
    void setParent(VersionedBuffer *p) { _parent = p; }

    /** The buffered value of @p addr, if this path wrote it. */
    std::optional<int32_t> lookup(uint32_t addr) const
    {
        if (const Line *line = find(addr / wordsPerLine)) {
            uint32_t w = addr % wordsPerLine;
            if (line->mask & (1u << w))
                return line->data[w];
        }
        return std::nullopt;
    }

    /** Buffer a store of @p value to @p addr. */
    void write(uint32_t addr, int32_t value);

    /** Number of distinct words written. */
    size_t numWords() const { return wordCount; }

    /** Number of distinct L1 lines holding this path's dirty data. */
    size_t numLines() const { return lineCount; }

    /** Commit: drain the write set into main memory (lazy ID recycle). */
    void commitTo(MainMemory &main) const;

    /** Squash: gang-invalidate all tagged lines. */
    void clear();

    /** Visit every buffered (addr, value) pair, line by line. */
    template <typename Fn>
    void forEachWrite(Fn &&fn) const
    {
        for (const Line &line : table) {
            if (line.tag == emptyTag)
                continue;
            for (uint32_t w = 0; w < wordsPerLine; ++w) {
                if (line.mask & (1u << w))
                    fn(line.tag * wordsPerLine + w, line.data[w]);
            }
        }
    }

  private:
    /** One dirty L1 line: tag, valid-word mask and data block. */
    struct Line
    {
        uint32_t tag = emptyTag;    //!< line number (addr / wordsPerLine)
        uint8_t mask = 0;           //!< which words the path wrote
        int32_t data[wordsPerLine];
    };

    static constexpr uint32_t emptyTag = 0xffffffffu;
    static constexpr size_t initialSlots = 16;

    static size_t slotOf(uint32_t tag, size_t tableSize)
    {
        // Fibonacci hashing; tableSize is a power of two.
        return (tag * 0x9e3779b1u) & (tableSize - 1);
    }

    /** The line with @p tag, or null.  Inline: every NT-Path load and
     *  every CMP segment-chain read probes here. */
    const Line *find(uint32_t tag) const
    {
        if (table.empty())
            return nullptr;
        size_t slot = slotOf(tag, table.size());
        for (;;) {
            const Line &line = table[slot];
            if (line.tag == tag)
                return &line;
            if (line.tag == emptyTag)
                return nullptr;
            slot = (slot + 1) & (table.size() - 1);
        }
    }

    Line &findOrInsert(uint32_t tag);
    void grow();

    int _pathId;
    VersionedBuffer *_parent = nullptr;
    std::vector<Line> table;        //!< open-addressed, power-of-two size
    size_t lineCount = 0;
    size_t wordCount = 0;
};

/**
 * A path's view of memory: its own buffer (if any), then its ancestor
 * buffers, then committed main memory.  This is the tree-structured
 * data dependence of Figure 6(c): a path reads data produced or
 * propagated by its parent segments, and updates made after its parent
 * segment are invisible to it.
 */
class MemCtx
{
  public:
    MemCtx(MainMemory &main, VersionedBuffer *buffer)
        : mainMem(&main), buf(buffer)
    {}

    bool valid(uint32_t addr) const { return mainMem->valid(addr); }

    /** Read through the version chain; @p addr must be valid. */
    int32_t read(uint32_t addr) const;

    /** Write to the path's buffer, or directly to main if none. */
    void write(uint32_t addr, int32_t value);

    /**
     * Bounds-checked read: false (and @p out untouched) when @p addr
     * is outside memory.  Folds the valid() test into the access so
     * the interpreter's load path checks the address exactly once.
     */
    bool tryRead(uint32_t addr, int32_t &out) const
    {
        if (!mainMem->valid(addr))
            return false;
        out = readResolved(addr);
        return true;
    }

    /** Bounds-checked write; false when @p addr is outside memory. */
    bool tryWrite(uint32_t addr, int32_t value)
    {
        if (!mainMem->valid(addr))
            return false;
        writeResolved(addr, value);
        return true;
    }

    VersionedBuffer *buffer() { return buf; }
    const VersionedBuffer *buffer() const { return buf; }

  private:
    /** Read @p addr already known to be in bounds. */
    int32_t readResolved(uint32_t addr) const
    {
        for (const VersionedBuffer *b = buf; b; b = b->parent()) {
            if (auto v = b->lookup(addr))
                return *v;
        }
        return mainMem->load(addr);
    }

    void writeResolved(uint32_t addr, int32_t value)
    {
        if (buf)
            buf->write(addr, value);
        else
            mainMem->store(addr, value);
    }

    MainMemory *mainMem;
    VersionedBuffer *buf;
};

} // namespace pe::mem

#endif // PE_MEM_VERSIONED_BUFFER_HH
