/**
 * @file
 * One description of each piece of checkpointed state.
 *
 * A component names its fields once, in a serialize(Archive &ar)
 * member: ar(a, b, c) for plain fields, ar.seq(v) for count-prefixed
 * containers, ar.fixed(v, what) for containers whose length is
 * construction-time shape. The same call writes the fields when the
 * Archive wraps a section's Writer and reads them back into the live
 * objects when it wraps a Reader, so save and restore cannot drift
 * apart. What is behaviour rather than data (canonical orders,
 * rebuilding memoized indexes) stays an explicit hook guarded by
 * ar.loading(), and saving never writes to the object being saved.
 *
 * Each field travels in its natural fixed width: bool and 8-bit enums
 * as one byte, char as u8, the integer types at their own width, double
 * as its IEEE-754 bit pattern, std::byte arrays raw. Containers carry a
 * u64 element count.
 *
 * Value types in headers that must not depend on this one (stats,
 * RNG, packets, messages, cache arrays) declare a member template
 * `template <class Ar> void serialize(Ar &ar)`; it is only ever
 * instantiated with Archive. Kept apart from archive.hh so the bare
 * container format stays free of simulator types for offline tools.
 */

#ifndef FSOI_SNAPSHOT_SERIALIZE_HH
#define FSOI_SNAPSHOT_SERIALIZE_HH

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "snapshot/archive.hh"

namespace fsoi::snapshot {

/** One section's fields, written to a Writer or read from a Reader. */
class Archive
{
  public:
    explicit Archive(Writer &w) : writer_(&w) {}
    explicit Archive(Reader r) : reader_(std::move(r)) {}

    bool loading() const { return reader_.has_value(); }

    void
    io(bool &v)
    {
        if (writer_)
            writer_->boolean(v);
        else
            v = reader_->boolean();
    }

    void io(std::uint8_t &v) { prim(v); }
    void io(std::uint16_t &v) { prim(v); }
    void io(std::uint32_t &v) { prim(v); }
    void io(std::uint64_t &v) { prim(v); }
    void io(std::int32_t &v) { prim(v); }
    void io(double &v) { prim(v); }

    void
    io(char &v)
    {
        auto byte = static_cast<std::uint8_t>(v);
        io(byte);
        if (loading())
            v = static_cast<char>(byte);
    }

    template <class E>
        requires std::is_enum_v<E>
    void
    io(E &v)
    {
        auto raw = static_cast<std::underlying_type_t<E>>(v);
        io(raw);
        if (loading())
            v = static_cast<E>(raw);
    }

    template <std::size_t N>
    void
    io(std::byte (&bytes)[N])
    {
        if (writer_)
            writer_->raw(bytes, N);
        else
            reader_->raw(bytes, N);
    }

    template <class T, std::size_t N>
    void
    io(T (&items)[N])
    {
        for (T &x : items)
            io(x);
    }

    template <class T, std::size_t N>
    void
    io(std::array<T, N> &items)
    {
        for (T &x : items)
            io(x);
    }

    /** Anything that describes itself with a serialize member. */
    template <class T>
        requires requires(T &obj, Archive &ar) { obj.serialize(ar); }
    void
    io(T &obj)
    {
        obj.serialize(*this);
    }

    template <class... Ts>
    void
    operator()(Ts &...fields)
    {
        (io(fields), ...);
    }

    /** A u64 element count: writes @p n, or returns the stored one. */
    std::uint64_t
    count(std::uint64_t n)
    {
        io(n);
        return n;
    }

    /** Count, then each element through @p each. Loading replaces the
     *  contents with value-initialized elements before filling them. */
    template <class C, class Fn>
    void
    seq(C &items, Fn &&each)
    {
        const std::uint64_t n = count(items.size());
        if (loading()) {
            items.clear();
            items.resize(n);
        }
        for (auto &x : items)
            each(x);
    }

    template <class C>
    void
    seq(C &items)
    {
        seq(items, [this](auto &x) { io(x); });
    }

    /** A container sized at construction: the count is written for
     *  checking, and a stored count that differs from the live one is
     *  a fatal "<what> mismatch on restore". */
    template <class C, class Fn>
    void
    fixed(C &items, const char *what, Fn &&each)
    {
        const std::uint64_t n = count(items.size());
        FSOI_ASSERT(n == items.size(), "%s mismatch on restore", what);
        for (auto &x : items)
            each(x);
    }

    template <class C>
    void
    fixed(C &items, const char *what)
    {
        fixed(items, what, [this](auto &x) { io(x); });
    }

    /**
     * A hash map written in ascending key order, so snapshot bytes
     * never depend on hash-table iteration order: count, then each key
     * followed by @p value's fields. Loading clears the map and
     * re-inserts the entries in that order.
     */
    template <class M, class Fn>
    void
    sortedMap(M &map, Fn &&value)
    {
        using Key = typename M::key_type;
        std::vector<Key> keys;
        if (!loading()) {
            keys.reserve(map.size());
            for (const auto &entry : map)
                keys.push_back(entry.first);
            std::sort(keys.begin(), keys.end());
        }
        const std::uint64_t n = count(keys.size());
        if (loading()) {
            map.clear();
            keys.resize(n);
        }
        for (Key &key : keys) {
            io(key);
            value(loading() ? map[key] : map.at(key));
        }
    }

    template <class M>
    void
    sortedMap(M &map)
    {
        sortedMap(map, [this](auto &x) { io(x); });
    }

  private:
    /** A value at its own width (Writer::put / Reader::get). */
    template <class T>
    void
    prim(T &v)
    {
        if (writer_)
            writer_->put(v);
        else
            v = reader_->get<T>();
    }

    Writer *writer_ = nullptr;
    std::optional<Reader> reader_;
};

/** A whole snapshot, opened section by section for writing or reading. */
class Sections
{
  public:
    explicit Sections(SnapshotWriter &snap) : writer_(&snap) {}
    explicit Sections(const SnapshotReader &snap) : reader_(&snap) {}

    /** Section @p name: appended when writing (sections keep their
     *  open order, and a section's Archive may be written only until
     *  the next section opens), its verified payload when reading. */
    Archive
    open(const std::string &name) const
    {
        return writer_ ? Archive(writer_->section(name))
                       : Archive(reader_->open(name));
    }

    /** @p obj as the whole of section @p name. */
    template <class T>
    void
    io(const std::string &name, T &obj) const
    {
        Archive ar = open(name);
        ar.io(obj);
    }

  private:
    SnapshotWriter *writer_ = nullptr;
    const SnapshotReader *reader_ = nullptr;
};

} // namespace fsoi::snapshot

#endif // FSOI_SNAPSHOT_SERIALIZE_HH
