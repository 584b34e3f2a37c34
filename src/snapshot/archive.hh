/**
 * @file
 * Snapshot container format: versioned, hash-verified binary sections.
 *
 * A snapshot file is a flat sequence of named sections, each guarded by
 * its own FNV-1a hash, under a root hash over the section table:
 *
 *   "FSOISNP\0"  magic (8 bytes)
 *   u32          format version (kFormatVersion)
 *   u32          section count
 *   u64          root hash (FNV-1a over every section's name/size/hash)
 *   per section: u16 name length, name bytes,
 *                u64 payload size, u64 payload hash, payload bytes
 *
 * Integrity is checked section by section at open time, so a truncated
 * or bit-flipped file fails with a *named* diagnosis — e.g.
 * "snapshot.corrupt: mesh.router[12]" — instead of feeding garbage into
 * component state. All multi-byte values are little-endian (the codecs
 * copy a value's bytes as the host holds them, so the build requires a
 * little-endian host); doubles travel as their IEEE-754 bit patterns,
 * so restored state (and the hashes over it) is bit-exact.
 *
 * Everything here is header-only and depends on the standard library
 * (plus POSIX fstat, and Linux fallocate where present) alone: simulator components serialize through
 * Writer/Reader (via snapshot/serialize.hh's Archive), while offline
 * tools (stats_report --snapshot) can parse the container without
 * linking any simulator code.
 *
 * A checkpoint is held in memory at most once. SnapshotWriter streams
 * sections to the file through a small window of buffers, hashing each
 * once; SnapshotReader reads the whole file with one read and verifies
 * it before any section is opened.
 *
 * Compatibility policy: the format version is bumped on ANY layout
 * change, and restore refuses other versions outright. Snapshots are
 * short-lived artifacts (crash-resume points, warm-start seeds, CI
 * manifests regenerated with the tree), never a long-term archive, so
 * there is deliberately no cross-version migration path.
 */

#ifndef FSOI_SNAPSHOT_ARCHIVE_HH
#define FSOI_SNAPSHOT_ARCHIVE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <sys/stat.h>

namespace fsoi::snapshot {

inline constexpr std::uint32_t kFormatVersion = 1;
inline constexpr char kMagic[8] = {'F', 'S', 'O', 'I', 'S', 'N', 'P', 0};
/** Magic, version, section count and root hash. */
inline constexpr std::size_t kHeaderBytes = 24;

/** Any malformed / corrupt / mismatched snapshot throws this; the
 *  what() string is the named diagnosis (`snapshot.corrupt: ...`). */
struct SnapshotError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

static_assert(std::endian::native == std::endian::little,
              "snapshot values are little-endian on disk");

inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ULL;
inline constexpr std::uint64_t kFnvPrime = 0x00000100000001b3ULL;

/** 64-bit FNV-1a over a byte range, chainable via @p h. */
inline std::uint64_t
fnv1a(const void *data, std::size_t n, std::uint64_t h = kFnvBasis)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kFnvPrime;
    }
    return h;
}

/**
 * fnv1a() of every range, four ranges per loop. Each byte of one range
 * waits on the previous byte's multiply; four independent chains
 * overlap their multiplies (~3x the bytes per second of one chain).
 * Ranges are batched by size so the four chains of a batch end
 * together; the hashes come back in @p ranges' order.
 */
inline std::vector<std::uint64_t>
fnv1aEach(const std::vector<std::span<const std::uint8_t>> &ranges)
{
    std::vector<std::size_t> order(ranges.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return ranges[a].size() > ranges[b].size();
    });
    std::vector<std::uint64_t> out(ranges.size());
    std::size_t b = 0;
    for (; b + 4 <= order.size(); b += 4) {
        const std::uint8_t *p[4];
        std::uint64_t h[4];
        for (int k = 0; k < 4; ++k) {
            p[k] = ranges[order[b + k]].data();
            h[k] = kFnvBasis;
        }
        // Descending sizes: the fourth range is the batch's shortest.
        const std::size_t common = ranges[order[b + 3]].size();
        for (std::size_t i = 0; i < common; ++i) {
            h[0] = (h[0] ^ p[0][i]) * kFnvPrime;
            h[1] = (h[1] ^ p[1][i]) * kFnvPrime;
            h[2] = (h[2] ^ p[2][i]) * kFnvPrime;
            h[3] = (h[3] ^ p[3][i]) * kFnvPrime;
        }
        for (int k = 0; k < 4; ++k) {
            const std::size_t n = ranges[order[b + k]].size();
            out[order[b + k]] = fnv1a(p[k] + common, n - common, h[k]);
        }
    }
    for (; b < order.size(); ++b)
        out[order[b]] = fnv1a(ranges[order[b]].data(),
                              ranges[order[b]].size());
    return out;
}

/** Growable byte buffer with little-endian encoders: one capacity check
 *  and one memcpy per value. Values are written field by field — never
 *  whole structs — so struct padding can't leak indeterminate bytes
 *  into the hashes. */
class Writer
{
  public:
    void
    raw(const void *data, std::size_t n)
    {
        std::memcpy(grow(n), data, n);
    }

    /** Any arithmetic value at its own width; a double as its
     *  IEEE-754 bit pattern, so restore is bit-exact. */
    template <class T>
    void
    put(T v)
    {
        static_assert(std::is_arithmetic_v<T>);
        std::memcpy(grow(sizeof(v)), &v, sizeof(v));
    }

    void u8(std::uint8_t v) { put(v); }
    void boolean(bool v) { u8(v ? 1 : 0); }
    void u16(std::uint16_t v) { put(v); }
    void u32(std::uint32_t v) { put(v); }
    void u64(std::uint64_t v) { put(v); }

    const std::uint8_t *data() const { return buf_.data(); }
    std::size_t size() const { return size_; }
    /** Empty the buffer, keeping its capacity for the next section. */
    void clear() { size_ = 0; }

  private:
    /** Room for @p n more bytes; returns where they go. */
    std::uint8_t *
    grow(std::size_t n)
    {
        if (buf_.size() - size_ < n)
            expand(n);
        std::uint8_t *at = buf_.data() + size_;
        size_ += n;
        return at;
    }

    // Out of line, so put() stays small enough to inline per field.
    [[gnu::cold, gnu::noinline]] void
    expand(std::size_t n)
    {
        buf_.resize(std::max(2 * buf_.size(), size_ + n));
    }

    std::vector<std::uint8_t> buf_; //!< capacity; bytes past size_ unused
    std::size_t size_ = 0;
};

/** Bounds-checked reader over one section's payload. Reading past the
 *  end throws a diagnosis naming the section (can only happen on a
 *  writer/reader schema bug — corruption is caught by the hash). */
class Reader
{
  public:
    Reader(const std::uint8_t *data, std::size_t size, std::string name)
        : data_(data), size_(size), name_(std::move(name))
    {}

    void
    raw(void *out, std::size_t n)
    {
        std::memcpy(out, take(n), n);
    }

    /** Any arithmetic value at its own width. */
    template <class T>
    T
    get()
    {
        static_assert(std::is_arithmetic_v<T>);
        T v;
        std::memcpy(&v, take(sizeof(v)), sizeof(v));
        return v;
    }

    std::uint8_t u8() { return get<std::uint8_t>(); }
    bool boolean() { return u8() != 0; }
    std::uint16_t u16() { return get<std::uint16_t>(); }
    std::uint32_t u32() { return get<std::uint32_t>(); }
    std::uint64_t u64() { return get<std::uint64_t>(); }

  private:
    /** The next @p n bytes; throws when the payload ends first. */
    const std::uint8_t *
    take(std::size_t n)
    {
        if (n > size_ - pos_)
            underrun();
        const std::uint8_t *at = data_ + pos_;
        pos_ += n;
        return at;
    }

    [[noreturn, gnu::cold, gnu::noinline]] void
    underrun() const
    {
        throw SnapshotError("snapshot.underrun: " + name_);
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    std::string name_;
};

/**
 * Streams a snapshot to `<path>.tmp` and renames it to @p path on
 * commit(), so a crash mid-save never leaves a half-written snapshot
 * under the final name. Sections go out in open order through a small
 * window of reused buffers: when the window is full, the next open
 * hashes its sections once, four at a time (fnv1aEach), and writes
 * their table entries and payloads. A section's Writer may be written
 * only until the next section opens. commit() writes what is left and
 * patches the header's section count and root hash; a writer destroyed
 * without commit() removes its temp file.
 */
class SnapshotWriter
{
  public:
    explicit SnapshotWriter(std::string path)
        : path_(std::move(path)), tmp_(path_ + ".tmp"),
          file_(std::fopen(tmp_.c_str(), "wb"))
    {
        if (!file_)
            throw SnapshotError("snapshot.io: cannot write " + tmp_);
        entry_.raw(kMagic, sizeof(kMagic));
        entry_.u32(kFormatVersion);
        entry_.u32(0); // section count and root hash: patched by commit()
        entry_.u64(0);
        put(entry_);
    }

    SnapshotWriter(const SnapshotWriter &) = delete;
    SnapshotWriter &operator=(const SnapshotWriter &) = delete;

    ~SnapshotWriter()
    {
        if (file_) {
            std::fclose(file_);
            std::remove(tmp_.c_str());
        }
    }

    /** Open the next section, first writing out a full window. */
    Writer &
    section(std::string name)
    {
        if (pending_ == window_.size())
            flush();
        Pending &sec = window_[pending_++];
        sec.name = std::move(name);
        sec.payload.clear();
        return sec.payload;
    }

    /** Write the last section and the header, then rename into place. */
    void
    commit()
    {
        flush();
        entry_.clear();
        entry_.u32(count_);
        entry_.u64(root_);
        written_ = written_
                   && std::fseek(file_, sizeof(kMagic) + 4, SEEK_SET) == 0;
        put(entry_);
        const bool closed = std::fclose(std::exchange(file_, nullptr)) == 0;
        if (!written_ || !closed) {
            std::remove(tmp_.c_str());
            throw SnapshotError("snapshot.io: short write to " + tmp_);
        }
        if (std::rename(tmp_.c_str(), path_.c_str()) != 0) {
            std::remove(tmp_.c_str());
            throw SnapshotError("snapshot.io: cannot rename to " + path_);
        }
    }

  private:
    /** Hash the window's sections and write their table entries and
     *  payloads, in open order. */
    void
    flush()
    {
        std::vector<std::span<const std::uint8_t>> payloads;
        std::uint64_t bytes = 0; // table entries and payloads
        for (std::size_t i = 0; i < pending_; ++i) {
            const Pending &sec = window_[i];
            payloads.emplace_back(sec.payload.data(), sec.payload.size());
            bytes += 2 + sec.name.size() + 16 + sec.payload.size();
        }
        reserve(bytes);
        const std::vector<std::uint64_t> hashes = fnv1aEach(payloads);
        for (std::size_t i = 0; i < pending_; ++i) {
            const std::string &name = window_[i].name;
            const std::uint64_t size = payloads[i].size();
            root_ = fnv1a(name.data(), name.size(), root_);
            root_ = fnv1a(&size, sizeof(size), root_);
            root_ = fnv1a(&hashes[i], sizeof(hashes[i]), root_);
            entry_.clear();
            entry_.u16(static_cast<std::uint16_t>(name.size()));
            entry_.raw(name.data(), name.size());
            entry_.u64(size);
            entry_.u64(hashes[i]);
            put(entry_);
            put(window_[i].payload);
        }
        count_ += static_cast<std::uint32_t>(pending_);
        pending_ = 0;
    }

    /**
     * Allocate the file's next @p bytes before writing them. On ext4,
     * a rename over an existing checkpoint first allocates every
     * delayed-allocation block of the new file (auto_da_alloc), ~4 ms
     * of a 12 ms 64-core save; blocks allocated up front leave the
     * rename nothing to do. A hint only: without fallocate, or if it
     * fails, the save is just slower.
     */
    void
    reserve(std::uint64_t bytes)
    {
#ifdef FALLOC_FL_KEEP_SIZE
        (void)::fallocate(fileno(file_), FALLOC_FL_KEEP_SIZE,
                          static_cast<off_t>(offset_),
                          static_cast<off_t>(bytes));
#endif
        offset_ += bytes;
    }

    /** A failed write is reported by commit(), so nothing after the
     *  fopen in the constructor throws. */
    void
    put(const Writer &w)
    {
        written_ = written_
                   && std::fwrite(w.data(), 1, w.size(), file_) == w.size();
    }

    struct Pending
    {
        std::string name;
        Writer payload;
    };

    std::string path_;
    std::string tmp_;
    std::FILE *file_;
    Writer entry_; //!< header or one section's table entry
    /** Twelve sections: System writes a core, its L1 and its directory
     *  per node, so a full window hashes four of each kind together. */
    std::array<Pending, 12> window_;
    std::size_t pending_ = 0;
    std::uint64_t offset_ = kHeaderBytes; //!< where the window goes
    std::uint32_t count_ = 0;
    std::uint64_t root_ = kFnvBasis;
    bool written_ = true; //!< every write so far succeeded
};

/** Parses and verifies a snapshot; the root hash and then every
 *  section's hash are checked up front, so consumers never read
 *  corrupt bytes. */
class SnapshotReader
{
  public:
    struct SectionInfo
    {
        std::string name;
        std::uint64_t size;
        std::uint64_t hash;
        std::size_t offset; //!< payload offset within the file
    };

    explicit SnapshotReader(std::vector<std::uint8_t> bytes)
        : bytes_(std::move(bytes))
    {
        parse();
    }

    static SnapshotReader
    fromFile(const std::string &path)
    {
        std::FILE *f = std::fopen(path.c_str(), "rb");
        if (!f)
            throw SnapshotError("snapshot.io: cannot open " + path);
        // One read, sized by fstat. Anything but a regular file (e.g. a
        // directory, which opens fine) is an I/O error, not a
        // malformed snapshot.
        struct stat st {};
        const bool regular =
            ::fstat(fileno(f), &st) == 0 && S_ISREG(st.st_mode);
        std::vector<std::uint8_t> bytes(
            regular ? static_cast<std::size_t>(st.st_size) : 0);
        const bool ok = regular
                        && std::fread(bytes.data(), 1, bytes.size(), f)
                               == bytes.size();
        std::fclose(f);
        if (!ok)
            throw SnapshotError("snapshot.io: cannot read " + path);
        return SnapshotReader(std::move(bytes));
    }

    std::uint32_t version() const { return version_; }
    std::uint64_t rootHash() const { return root_; }
    const std::vector<SectionInfo> &sections() const { return sections_; }

    bool
    has(const std::string &name) const
    {
        for (const auto &s : sections_)
            if (s.name == name)
                return true;
        return false;
    }

    /** Open a section for reading; throws when absent. */
    Reader
    open(const std::string &name) const
    {
        for (const auto &s : sections_)
            if (s.name == name)
                return Reader(bytes_.data() + s.offset,
                              static_cast<std::size_t>(s.size), s.name);
        throw SnapshotError("snapshot.missing: " + name);
    }

  private:
    void
    parse()
    {
        // A file that ends early is truncation; the explicit size
        // checks keep Reader's underrun for schema bugs only.
        if (bytes_.size() < kHeaderBytes)
            throw SnapshotError("snapshot.truncated: header");
        Reader hdr(bytes_.data(), kHeaderBytes, "header");
        char magic[8];
        hdr.raw(magic, sizeof(magic));
        if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
            throw SnapshotError("snapshot.bad_magic: not a snapshot file");
        version_ = hdr.u32();
        if (version_ != kFormatVersion)
            throw SnapshotError(
                "snapshot.version_mismatch: file has version "
                + std::to_string(version_) + ", this build reads "
                + std::to_string(kFormatVersion));
        const std::uint32_t count = hdr.u32();
        root_ = hdr.u64();
        std::size_t pos = kHeaderBytes;
        for (std::uint32_t i = 0; i < count; ++i) {
            // Entry: u16 name length, name, u64 size, u64 hash.
            const std::size_t left = bytes_.size() - pos;
            const std::size_t name_len =
                left < 2 ? 0 : bytes_[pos] | (bytes_[pos + 1] << 8);
            if (left < 2 + name_len + 16)
                throw SnapshotError("snapshot.truncated: section table");
            Reader sec(bytes_.data() + pos, 2 + name_len + 16,
                       "section table");
            SectionInfo info;
            sec.u16();
            info.name.resize(name_len);
            sec.raw(info.name.data(), name_len);
            info.size = sec.u64();
            info.hash = sec.u64();
            pos += 2 + name_len + 16;
            if (pos + info.size > bytes_.size())
                throw SnapshotError("snapshot.truncated: " + info.name);
            info.offset = pos;
            pos += static_cast<std::size_t>(info.size);
            sections_.push_back(std::move(info));
        }

        // Root hash over the section table first: a tampered table
        // entry would otherwise let a payload "verify" against a
        // forged hash.
        std::uint64_t root = kFnvBasis;
        std::vector<std::span<const std::uint8_t>> payloads;
        payloads.reserve(sections_.size());
        for (const auto &s : sections_) {
            root = fnv1a(s.name.data(), s.name.size(), root);
            root = fnv1a(&s.size, sizeof(s.size), root);
            root = fnv1a(&s.hash, sizeof(s.hash), root);
            payloads.emplace_back(bytes_.data() + s.offset,
                                  static_cast<std::size_t>(s.size));
        }
        if (root != root_)
            throw SnapshotError("snapshot.corrupt: section table");
        // The first corrupt section in file order is the one named.
        const std::vector<std::uint64_t> hashes = fnv1aEach(payloads);
        for (std::size_t i = 0; i < sections_.size(); ++i) {
            if (hashes[i] != sections_[i].hash)
                throw SnapshotError("snapshot.corrupt: "
                                    + sections_[i].name);
        }
    }

    std::vector<std::uint8_t> bytes_;
    std::uint32_t version_ = 0;
    std::uint64_t root_ = 0;
    std::vector<SectionInfo> sections_;
};

} // namespace fsoi::snapshot

#endif // FSOI_SNAPSHOT_ARCHIVE_HH
