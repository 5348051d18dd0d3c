// Bounds-checked binary (de)serialization with one schema per type.
//
// Snapshots (core/snapshot) and journal records (obs/journal) are
// little-endian byte streams. Every serialized type names its fields once,
// in stream order, in one member
//
//   template <class Ar> util::Status Visit(Ar& ar);
//
// where `Ar` is ByteWriter (save), ByteReader (load) or SchemaDigest (a
// layout hash, pinned in tests/fl/schema_digest_test.cc), so a writer and a
// reader that disagree cannot be written. Archive methods: Io(x) for
// arithmetic values, bools, enums, strings, vectors, pairs, maps and nested
// Visit types; Io(std::span) for runs whose count earlier fields imply
// (arithmetic runs are one append or one memcpy); Present(cond) for a
// field stored only when `cond` holds; Repeat(n) for n records with no
// count prefix; Check(cond, message) and Fail(status) for validation,
// which only the reader acts on. A map streams its entries in key order,
// and the reader rejects keys that are not strictly increasing, so every
// loaded map re-saves to the bytes it was read from.
//
// ByteReader errors are sticky: the first failed read or check is kept,
// every later Io/Check touches neither the cursor nor its target, and
// Visit returns `ar.status()`. Code that acts on loaded values runs under
// `ar.ok()`, so a corrupt stream allocates and mutates nothing past the
// point it failed and degrades into a Status, never a crash.
// SchemaDigest folds one element per sequence, takes every Present branch
// and runs one Repeat iteration: a digest depends on the code, not data.

#ifndef FEDMIGR_UTIL_SERIAL_H_
#define FEDMIGR_UTIL_SERIAL_H_

#include <algorithm>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/status.h"

namespace fedmigr::util {

// Fixed-width values stored as their little-endian bytes.
template <class T>
concept Scalar = std::is_arithmetic_v<T> && !std::is_same_v<T, bool>;

// A type with a Visit member for archive `Ar`.
template <class T, class Ar>
concept Visitable = requires(T& t, Ar& ar) {
  { t.Visit(ar) } -> std::same_as<Status>;
};

// Validation hooks of the archives that cannot fail (writing, digesting).
class Unfailing {
 public:
  void Check(bool, const char*) {}
  template <class F>
    requires std::is_invocable_r_v<bool, F>
  void Check(F&&, const char*) {}
  void Fail(const Status&) {}
  bool ok() const { return true; }
  Status status() const { return Status::Ok(); }
};

class ByteWriter : public Unfailing {
 public:
  static constexpr bool kLoading = false;
  static constexpr bool kSchema = false;

  ByteWriter() = default;

  template <Scalar T>
  void Io(const T& value) {
    Append(&value, sizeof(value));
  }
  void Io(const bool& value) { Io(static_cast<uint8_t>(value ? 1 : 0)); }
  template <class E>
    requires std::is_enum_v<E>
  void Io(const E& value) {
    Io(static_cast<std::underlying_type_t<E>>(value));
  }
  void Io(const std::string& s) {
    Io(static_cast<uint64_t>(s.size()));
    Append(s.data(), s.size());
  }
  // u64 count, then the elements.
  template <class T>
  void Io(const std::vector<T>& values) {
    Io(static_cast<uint64_t>(values.size()));
    if constexpr (Scalar<T>) {
      Append(values.data(), values.size() * sizeof(T));
    } else {
      for (const T& v : values) Io(v);
    }
  }
  // The elements only; the count is implied by earlier fields.
  template <class T>
  void Io(std::span<T> values) {
    if constexpr (Scalar<std::remove_const_t<T>>) {
      Append(values.data(), values.size_bytes());
    } else {
      for (auto& v : values) Io(v);
    }
  }
  template <class A, class B>
  void Io(const std::pair<A, B>& pair) {
    Io(pair.first);
    Io(pair.second);
  }
  template <class K, class V>
  void Io(const std::map<K, V>& entries) {
    Io(static_cast<uint64_t>(entries.size()));
    for (const auto& entry : entries) Io(entry);
  }
  // Nested type: Visit is a non-const member shared with the reader, and a
  // writer never modifies what it visits.
  template <class T>
    requires Visitable<T, ByteWriter>
  void Io(const T& value) {
    (void)const_cast<T&>(value).Visit(*this);
  }

  bool Present(bool cond) { return cond; }
  size_t Repeat(size_t n) { return n; }

  const std::vector<uint8_t>& bytes() const { return bytes_; }
  std::vector<uint8_t> TakeBytes() { return std::move(bytes_); }
  void Reserve(size_t n) { bytes_.reserve(n); }
  size_t size() const { return bytes_.size(); }

 private:
  void Append(const void* data, size_t size) {
    if (size == 0) return;  // empty vectors have a null data()
    const auto* p = static_cast<const uint8_t*>(data);
    bytes_.insert(bytes_.end(), p, p + size);
  }

  std::vector<uint8_t> bytes_;
};

// Non-owning view over a byte buffer; the buffer must outlive the reader.
// Every read checks the remaining length first; a failed read leaves the
// cursor and its target untouched and makes the error sticky.
class ByteReader {
 public:
  static constexpr bool kLoading = true;
  static constexpr bool kSchema = false;

  ByteReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit ByteReader(const std::vector<uint8_t>& bytes)
      : ByteReader(bytes.data(), bytes.size()) {}

  template <Scalar T>
  void Io(T& value) {
    ReadRaw(&value, sizeof(value));
  }
  void Io(bool& value) {
    uint8_t raw = 0;
    if (!ReadRaw(&raw, 1)) return;
    Check(raw <= 1, "malformed bool byte");
    if (ok()) value = raw != 0;
  }
  template <class E>
    requires std::is_enum_v<E>
  void Io(E& value) {
    std::underlying_type_t<E> raw{};
    if (ReadRaw(&raw, sizeof(raw))) value = static_cast<E>(raw);
  }
  void Io(std::string& s) {
    uint64_t count = 0;
    if (!ReadCount(1, &count)) return;
    s.assign(reinterpret_cast<const char*>(data_ + offset_),
             static_cast<size_t>(count));
    offset_ += static_cast<size_t>(count);
  }
  // Parses into a fresh vector and swaps it in only once every element
  // has parsed, so a failed read leaves `values` as it was.
  template <class T>
  void Io(std::vector<T>& values) {
    uint64_t count = 0;
    if (!ReadCount(Scalar<T> ? sizeof(T) : 1, &count)) return;
    std::vector<T> parsed(static_cast<size_t>(count));
    if constexpr (Scalar<T>) {
      ReadRaw(parsed.data(), parsed.size() * sizeof(T));
    } else {
      for (size_t i = 0; i < parsed.size() && ok(); ++i) {
        if constexpr (std::is_same_v<T, bool>) {
          bool v = false;
          Io(v);
          parsed[i] = v;
        } else {
          Io(parsed[i]);
        }
      }
    }
    if (ok()) values.swap(parsed);
  }
  template <class T>
  void Io(std::span<T> values) {
    if constexpr (Scalar<T>) {
      ReadRaw(values.data(), values.size_bytes());
    } else {
      for (size_t i = 0; i < values.size() && ok(); ++i) Io(values[i]);
    }
  }
  template <class A, class B>
  void Io(std::pair<A, B>& pair) {
    Io(pair.first);
    Io(pair.second);
  }
  template <class K, class V>
  void Io(std::map<K, V>& entries) {
    std::vector<std::pair<K, V>> parsed;
    Io(parsed);
    Check(
        [&parsed] {
          return std::adjacent_find(parsed.begin(), parsed.end(),
                                    [](const auto& a, const auto& b) {
                                      return !(a.first < b.first);
                                    }) == parsed.end();
        },
        "map keys not strictly increasing");
    if (ok()) entries = std::map<K, V>(parsed.begin(), parsed.end());
  }
  template <class T>
    requires Visitable<T, ByteReader>
  void Io(T& value) {
    if (ok()) Fail(value.Visit(*this));
  }

  bool Present(bool cond) { return cond; }
  size_t Repeat(size_t n) { return n; }
  void Check(bool cond, const char* message) {
    if (ok() && !cond) status_ = Status::InvalidArgument(message);
  }
  template <class F>
    requires std::is_invocable_r_v<bool, F>
  void Check(F&& pred, const char* message) {
    if (ok() && !pred()) status_ = Status::InvalidArgument(message);
  }
  // Records `status` unless an earlier error is already kept.
  void Fail(const Status& status) {
    if (ok()) status_ = status;
  }
  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  size_t remaining() const { return size_ - offset_; }
  bool AtEnd() const { return offset_ == size_; }

 private:
  bool ReadRaw(void* out, size_t size) {
    if (!ok()) return false;
    if (remaining() < size) {
      status_ = Status::InvalidArgument("byte stream truncated");
      return false;
    }
    if (size > 0) std::memcpy(out, data_ + offset_, size);
    offset_ += size;
    return true;
  }
  // Reads a u64 element count and checks it against the bytes actually
  // left (each element takes at least `element_size` bytes).
  bool ReadCount(size_t element_size, uint64_t* count) {
    uint64_t raw = 0;
    if (!ReadRaw(&raw, sizeof(raw))) return false;
    Check(raw <= remaining() / element_size,
          "sequence length exceeds buffer");
    if (ok()) *count = raw;
    return ok();
  }

  const uint8_t* data_;
  size_t size_;
  size_t offset_ = 0;
  Status status_;
};

// Hashes a type's stream layout: the type tag of every field, sequence
// nesting and optional fields, never a value.
class SchemaDigest : public Unfailing {
 public:
  static constexpr bool kLoading = false;
  static constexpr bool kSchema = true;

  template <Scalar T>
  void Io(const T&) {
    Fold(std::is_floating_point_v<T> ? 'f'
         : std::is_signed_v<T>       ? 'i'
                                     : 'u');
    Fold(static_cast<char>('0' + sizeof(T)));
  }
  void Io(const bool&) { Fold('b'); }
  template <class E>
    requires std::is_enum_v<E>
  void Io(const E&) {
    Io(std::underlying_type_t<E>{});
  }
  void Io(const std::string&) { Fold('s'); }
  template <class T>
  void Io(const std::vector<T>&) {
    Fold('[');
    Element<T>();
    Fold(']');
  }
  template <class T>
  void Io(std::span<T>) {
    Fold('(');
    Element<std::remove_const_t<T>>();
    Fold(')');
  }
  template <class A, class B>
  void Io(const std::pair<A, B>&) {
    Element<A>();
    Element<B>();
  }
  template <class K, class V>
  void Io(const std::map<K, V>&) {
    Fold('<');
    Element<K>();
    Element<V>();
    Fold('>');
  }
  template <class T>
    requires Visitable<T, SchemaDigest>
  void Io(const T& value) {
    Fold('{');
    (void)const_cast<T&>(value).Visit(*this);
    Fold('}');
  }

  bool Present(bool) {
    Fold('?');
    return true;
  }
  size_t Repeat(size_t) {
    Fold('*');
    return 1;
  }

  uint64_t value() const { return hash_; }

 private:
  // A sequence's element schema, folded once from a default element.
  template <class T>
  void Element() {
    T element{};
    Io(element);
  }
  void Fold(char tag) {
    hash_ ^= static_cast<uint8_t>(tag);
    hash_ *= 0x100000001b3ULL;
  }

  uint64_t hash_ = 0xcbf29ce484222325ULL;
};

// Instantiates T::Visit for the three archives, in the .cc file of a type
// whose Visit is defined there rather than in its header.
#define FEDMIGR_INSTANTIATE_VISIT(T)                                      \
  template ::fedmigr::util::Status T::Visit(::fedmigr::util::ByteWriter&); \
  template ::fedmigr::util::Status T::Visit(::fedmigr::util::ByteReader&); \
  template ::fedmigr::util::Status T::Visit(::fedmigr::util::SchemaDigest&)

// Whole-object entry points.
template <class T>
void Save(const T& obj, ByteWriter* writer) {
  writer->Io(obj);
}

// A copyable object is loaded into a copy that is committed only when the
// whole object parsed, so a failed load leaves `obj` untouched (state it
// shares by pointer, such as the DRL policy's agent, is loaded in place).
// Other objects are loaded in place.
template <class T>
Status Load(ByteReader* reader, T* obj) {
  if constexpr (std::is_copy_constructible_v<T>) {
    T staged = *obj;
    reader->Io(staged);
    if (reader->ok()) *obj = std::move(staged);
  } else {
    reader->Io(*obj);
  }
  return reader->status();
}

template <class T>
uint64_t Digest(const T& obj) {
  SchemaDigest digest;
  digest.Io(obj);
  return digest.value();
}

}  // namespace fedmigr::util

#endif  // FEDMIGR_UTIL_SERIAL_H_
