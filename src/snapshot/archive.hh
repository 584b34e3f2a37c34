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
 * component state. All multi-byte values are little-endian regardless
 * of host; doubles travel as their IEEE-754 bit patterns, so restored
 * state (and the hashes over it) is bit-exact.
 *
 * Everything here is header-only and depends on the standard library
 * alone: simulator components serialize through Writer/Reader (via
 * snapshot/serialize.hh's Archive), while offline tools
 * (stats_report --snapshot) can parse the container without linking
 * any simulator code.
 *
 * Compatibility policy: the format version is bumped on ANY layout
 * change, and restore refuses other versions outright. Snapshots are
 * short-lived artifacts (crash-resume points, warm-start seeds, CI
 * manifests regenerated with the tree), never a long-term archive, so
 * there is deliberately no cross-version migration path.
 */

#ifndef FSOI_SNAPSHOT_ARCHIVE_HH
#define FSOI_SNAPSHOT_ARCHIVE_HH

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

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

/** 64-bit FNV-1a over a byte range, chainable via @p h. */
inline std::uint64_t
fnv1a(const void *data, std::size_t n,
      std::uint64_t h = 0xcbf29ce484222325ULL)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x00000100000001b3ULL;
    }
    return h;
}

/** Append-only byte buffer with explicit little-endian encoders.
 *  Values are written field by field — never whole structs — so struct
 *  padding can't leak indeterminate bytes into the hashes. */
class Writer
{
  public:
    void
    raw(const void *data, std::size_t n)
    {
        const auto *p = static_cast<const std::uint8_t *>(data);
        buf_.insert(buf_.end(), p, p + n);
    }

    void u8(std::uint8_t v) { buf_.push_back(v); }
    void boolean(bool v) { u8(v ? 1 : 0); }

    void
    u16(std::uint16_t v)
    {
        u8(static_cast<std::uint8_t>(v));
        u8(static_cast<std::uint8_t>(v >> 8));
    }

    void
    u32(std::uint32_t v)
    {
        u16(static_cast<std::uint16_t>(v));
        u16(static_cast<std::uint16_t>(v >> 16));
    }

    void
    u64(std::uint64_t v)
    {
        u32(static_cast<std::uint32_t>(v));
        u32(static_cast<std::uint32_t>(v >> 32));
    }

    void i32(std::int32_t v) { u32(static_cast<std::uint32_t>(v)); }
    void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

    /** IEEE-754 bit pattern: restore is bit-exact, hashes are stable. */
    void
    dbl(double v)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        raw(s.data(), s.size());
    }

    const std::vector<std::uint8_t> &bytes() const { return buf_; }
    std::size_t size() const { return buf_.size(); }

  private:
    std::vector<std::uint8_t> buf_;
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
        if (pos_ + n > size_)
            throw SnapshotError("snapshot.underrun: " + name_);
        std::memcpy(out, data_ + pos_, n);
        pos_ += n;
    }

    std::uint8_t
    u8()
    {
        if (pos_ >= size_)
            throw SnapshotError("snapshot.underrun: " + name_);
        return data_[pos_++];
    }

    bool boolean() { return u8() != 0; }

    std::uint16_t
    u16()
    {
        const std::uint16_t lo = u8();
        return static_cast<std::uint16_t>(lo | (std::uint16_t{u8()} << 8));
    }

    std::uint32_t
    u32()
    {
        const std::uint32_t lo = u16();
        return lo | (std::uint32_t{u16()} << 16);
    }

    std::uint64_t
    u64()
    {
        const std::uint64_t lo = u32();
        return lo | (std::uint64_t{u32()} << 32);
    }

    std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
    std::int64_t i64() { return static_cast<std::int64_t>(u64()); }

    double
    dbl()
    {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string
    str()
    {
        const std::uint32_t n = u32();
        if (pos_ + n > size_)
            throw SnapshotError("snapshot.underrun: " + name_);
        std::string s(reinterpret_cast<const char *>(data_ + pos_), n);
        pos_ += n;
        return s;
    }

    std::size_t remaining() const { return size_ - pos_; }
    const std::string &name() const { return name_; }

  private:
    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    std::string name_;
};

/** Builds a snapshot: open named sections, then serialize to a file
 *  (written atomically: temp file + rename) or a byte buffer. */
class SnapshotWriter
{
  public:
    /** Open a new section; the returned Writer stays valid for the
     *  lifetime of this SnapshotWriter. Sections are emitted in
     *  creation order. */
    Writer &
    section(std::string name)
    {
        sections_.emplace_back(std::move(name), Writer{});
        return sections_.back().second;
    }

    std::vector<std::uint8_t>
    serialize() const
    {
        Writer table;
        std::uint64_t root = 0xcbf29ce484222325ULL;
        for (const auto &[name, w] : sections_) {
            const std::uint64_t hash = fnv1a(w.bytes().data(), w.size());
            root = fnv1a(name.data(), name.size(), root);
            const std::uint64_t size64 = w.size();
            root = fnv1a(&size64, sizeof(size64), root);
            root = fnv1a(&hash, sizeof(hash), root);
        }

        Writer out;
        out.raw(kMagic, sizeof(kMagic));
        out.u32(kFormatVersion);
        out.u32(static_cast<std::uint32_t>(sections_.size()));
        out.u64(root);
        for (const auto &[name, w] : sections_) {
            out.u16(static_cast<std::uint16_t>(name.size()));
            out.raw(name.data(), name.size());
            out.u64(w.size());
            out.u64(fnv1a(w.bytes().data(), w.size()));
            out.raw(w.bytes().data(), w.size());
        }
        return out.bytes();
    }

    /** Write atomically (temp + rename) so a crash mid-write never
     *  leaves a half-written snapshot under the final name. */
    void
    writeFile(const std::string &path) const
    {
        const std::vector<std::uint8_t> bytes = serialize();
        const std::string tmp = path + ".tmp";
        std::FILE *f = std::fopen(tmp.c_str(), "wb");
        if (!f)
            throw SnapshotError("snapshot.io: cannot write " + tmp);
        const bool ok =
            std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
        const bool closed = std::fclose(f) == 0;
        if (!ok || !closed) {
            std::remove(tmp.c_str());
            throw SnapshotError("snapshot.io: short write to " + tmp);
        }
        if (std::rename(tmp.c_str(), path.c_str()) != 0) {
            std::remove(tmp.c_str());
            throw SnapshotError("snapshot.io: cannot rename to " + path);
        }
    }

  private:
    std::deque<std::pair<std::string, Writer>> sections_;
};

/** Parses and verifies a snapshot; every section's hash is checked up
 *  front so consumers never read corrupt bytes. */
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
        std::vector<std::uint8_t> bytes;
        std::uint8_t chunk[65536];
        std::size_t n;
        while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
            bytes.insert(bytes.end(), chunk, chunk + n);
        // A read error (e.g. the path is a directory) is not a short
        // file: report it as I/O, not as a malformed snapshot.
        const bool failed = std::ferror(f) != 0;
        std::fclose(f);
        if (failed)
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
        std::uint64_t root = 0xcbf29ce484222325ULL;
        for (const auto &s : sections_) {
            root = fnv1a(s.name.data(), s.name.size(), root);
            root = fnv1a(&s.size, sizeof(s.size), root);
            root = fnv1a(&s.hash, sizeof(s.hash), root);
        }
        if (root != root_)
            throw SnapshotError("snapshot.corrupt: section table");
        for (const auto &s : sections_) {
            if (fnv1a(bytes_.data() + s.offset,
                      static_cast<std::size_t>(s.size)) != s.hash)
                throw SnapshotError("snapshot.corrupt: " + s.name);
        }
    }

    std::vector<std::uint8_t> bytes_;
    std::uint32_t version_ = 0;
    std::uint64_t root_ = 0;
    std::vector<SectionInfo> sections_;
};

} // namespace fsoi::snapshot

#endif // FSOI_SNAPSHOT_ARCHIVE_HH
