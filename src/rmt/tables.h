// Ternary match-action table. All P4runpro tables use ternary match with
// (value, mask) keys and priorities (paper §7 "Entry Expansion"), backed by
// TCAM on the ASIC, where a lookup costs O(1) whatever the table holds. The
// simulator models capacity and keeps lookups close to that with two
// indexes over fixed-width inline key storage (no per-entry heap hop):
//   - Entries whose first key is exact (every RPB entry keys exactly on the
//     program id) live in per-first-key buckets, kept sorted by (priority
//     desc, handle asc) so a scan stops at the first match. The RPB chain's
//     per-program plans read these bucket spans directly
//     (dataplane/rpb_chain.h).
//   - Every other entry (the init block's filters rarely key on the ingress
//     port) sits in a tuple-space index: entries are grouped by mask vector,
//     each tuple hashes the masked key to its entries, and a lookup probes
//     the tuples in descending max priority and stops once the best match
//     outranks every remaining tuple.
// insert/erase maintain both indexes incrementally; no lookup ever builds
// or repairs index state.
//
// Concurrency: a table instance is NOT thread-safe for mutation. Lookups
// and the bucket/wildcard readers are const and touch no mutable state, so
// a frozen instance (inside a published dp::TableSnapshot) may be read from
// many threads at once (see docs/ARCHITECTURE.md "Snapshot data plane").
#pragma once

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/types.h"

namespace p4runpro::rmt {

/// One ternary key component: matches iff (packet_value & mask) == (value & mask).
struct TernaryKey {
  Word value = 0;
  Word mask = 0;

  [[nodiscard]] bool matches(Word field) const noexcept {
    return (field & mask) == (value & mask);
  }
  /// Wildcard component (matches anything).
  [[nodiscard]] static TernaryKey any() noexcept { return {0, 0}; }
  /// Exact-match component.
  [[nodiscard]] static TernaryKey exact(Word v) noexcept { return {v, 0xffffffffu}; }
};

using EntryHandle = std::uint64_t;

/// Widest key any provisioned table uses (the init-block filter tables,
/// kFilterKeyWidth = 7). The default inline key capacity of TernaryTable.
inline constexpr int kMaxTernaryKeyWidth = 8;

/// Erase instrumentation of a table: entries examined by erases. The
/// regression tests use it to prove that erase touches only the owning
/// bucket or tuple group (not every entry).
struct TernaryTableStats {
  std::uint64_t erase_probes = 0;  ///< entries examined across all erases
  std::uint64_t erase_calls = 0;
};

/// Non-owning link from a table to a shared write counter (the RPB chain's
/// plan version, see dp::RpbChain). The link belongs to the table object,
/// not to its contents: a copy (a snapshot of the table) starts unlinked,
/// and assigning new contents to a linked table counts as one write.
class WriteCounterLink {
 public:
  WriteCounterLink() = default;
  WriteCounterLink(const WriteCounterLink&) noexcept {}
  WriteCounterLink& operator=(const WriteCounterLink&) noexcept {
    bump();
    return *this;
  }

  void set(std::uint64_t* counter) noexcept { counter_ = counter; }
  void bump() const noexcept {
    if (counter_ != nullptr) ++*counter_;
  }

 private:
  std::uint64_t* counter_ = nullptr;
};

/// Match-action table with ternary keys and an arbitrary action payload.
/// Width (number of key components) is fixed per table; capacity models the
/// TCAM budget of the stage. `MaxWidth` bounds the inline per-entry key
/// storage at compile time (the RPB instantiates with kRpbKeyWidth).
template <typename Action, int MaxWidth = kMaxTernaryKeyWidth>
class TernaryTable {
 public:
  static_assert(MaxWidth >= 1 && MaxWidth <= 32);

  /// A packet's key fields, zero-padded past key_width (unused entry key
  /// components are wildcards, so the padding always matches). The fixed
  /// width lets every match loop unroll.
  using Fields = std::array<Word, MaxWidth>;

  /// One installed entry, as lookups and the bucket readers see it.
  struct Entry {
    std::array<TernaryKey, MaxWidth> keys;  // components [0, key_width); rest wildcard
    int priority = 0;
    EntryHandle handle = 0;
    Action action{};

    [[nodiscard]] bool matches(const Fields& fields) const noexcept {
      Word differ = 0;
      for (std::size_t i = 0; i < fields.size(); ++i) {
        differ |= (fields[i] ^ keys[i].value) & keys[i].mask;
      }
      return differ == 0;
    }

    /// Lookup order: higher priority first, then the earlier insertion.
    [[nodiscard]] bool outranks(const Entry& other) const noexcept {
      return priority > other.priority ||
             (priority == other.priority && handle < other.handle);
    }
  };

  TernaryTable(int key_width, std::size_t capacity)
      : key_width_(key_width), capacity_(capacity) {
    assert(key_width >= 1 && key_width <= MaxWidth);
  }

  /// Insert an entry; higher `priority` wins on overlap, ties resolve to
  /// the earlier insertion. Fails when the table is full (the allocator
  /// must prevent this; hitting it at runtime indicates an accounting bug).
  Result<EntryHandle> insert(std::span<const TernaryKey> keys, int priority,
                             Action action) {
    if (keys.size() != static_cast<std::size_t>(key_width_)) {
      return Error{"key width mismatch", "TernaryTable", ErrorCode::InvalidArgument};
    }
    if (size_ >= capacity_) {
      return Error{"table full", "TernaryTable", ErrorCode::AllocFailed};
    }
    const EntryHandle handle = next_handle_++;
    Entry entry;
    std::copy(keys.begin(), keys.end(), entry.keys.begin());
    entry.priority = priority;
    entry.handle = handle;
    entry.action = std::move(action);

    Locator locator;
    if (keys[0].mask == 0xffffffffu) {
      locator.first_key = keys[0].value;
      insert_sorted(bucket_for_insert(keys[0].value), std::move(entry));
    } else {
      locator = insert_wildcard(std::move(entry));
    }
    locator_.emplace(handle, locator);
    ++size_;
    writes_.bump();
    return handle;
  }

  Result<EntryHandle> insert(std::initializer_list<TernaryKey> keys, int priority,
                             Action action) {
    return insert(std::span<const TernaryKey>(keys.begin(), keys.size()), priority,
                  std::move(action));
  }

  /// Remove by handle; returns false if the handle is unknown. The
  /// handle locator makes this touch only the owning bucket or tuple group.
  bool erase(EntryHandle handle) {
    const auto loc = locator_.find(handle);
    if (loc == locator_.end()) return false;
    ++stats_.erase_calls;
    const Locator& where = loc->second;
    if (where.tuple != kNone) {
      erase_wildcard(where, handle);
    } else if (where.first_key < kDenseFirstKeyLimit) {
      assert(where.first_key < dense_.size());
      erase_from(dense_[where.first_key], handle);
    } else {
      const auto it = indexed_.find(where.first_key);
      assert(it != indexed_.end());
      erase_from(it->second, handle);
      if (it->second.empty()) indexed_.erase(it);
    }
    locator_.erase(loc);
    --size_;
    writes_.bump();
    return true;
  }

  /// Highest-priority matching action, or nullptr on miss. `fields` holds
  /// (at least) the table's key_width components. The returned pointer
  /// stays valid until the next insert/erase.
  [[nodiscard]] const Action* lookup(std::span<const Word> fields) const noexcept {
    Fields padded{};
    std::copy_n(fields.begin(), key_width_, padded.begin());
    const Entry* best = best_wildcard_match(padded, first_match(bucket(padded[0]), padded));
    return best == nullptr ? nullptr : &best->action;
  }

  /// The entries whose exact first key is `first_key`, in lookup order
  /// (priority desc, handle asc); empty if there are none. The span stays
  /// valid until the next insert/erase.
  [[nodiscard]] std::span<const Entry> bucket(Word first_key) const noexcept {
    if (first_key < dense_.size()) return dense_[first_key];
    if (first_key < kDenseFirstKeyLimit) return {};  // never populated
    const auto it = indexed_.find(first_key);
    if (it == indexed_.end()) return {};
    return it->second;
  }

  /// First entry of `entries` (in lookup order) that matches, or nullptr.
  [[nodiscard]] static const Entry* first_match(std::span<const Entry> entries,
                                                const Fields& fields) noexcept {
    for (const Entry& entry : entries) {
      if (entry.matches(fields)) return &entry;
    }
    return nullptr;
  }

  /// Whether any entry has a non-exact first key (and so may match
  /// whatever the first field holds).
  [[nodiscard]] bool has_wildcards() const noexcept { return !order_.empty(); }

  /// Tuple-space search over the non-exact-first-key entries: the better of
  /// `best` (a candidate from an exact bucket, or nullptr) and the best
  /// matching wildcard entry.
  [[nodiscard]] const Entry* best_wildcard_match(const Fields& fields,
                                                 const Entry* best) const noexcept {
    for (const TupleRef& ref : order_) {
      // Tuples come in descending max-priority bound: once the best match
      // beats this tuple's bound it beats every later tuple too. An equal
      // priority still needs the probe, because the earlier handle wins the
      // tie.
      if (best != nullptr && best->priority > ref.max_priority) break;
      const Entry* hit = find_in_tuple(tuples_[ref.tuple], fields);
      if (hit != nullptr && (best == nullptr || hit->outranks(*best))) best = hit;
    }
    return best;
  }

  /// Count every later insert/erase into `*counter` too (nullptr unlinks).
  /// The RPB chain uses this as its O(1) plan-validity version.
  void link_write_counter(std::uint64_t* counter) noexcept { writes_.set(counter); }

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }
  [[nodiscard]] std::size_t free_entries() const noexcept { return capacity_ - size_; }
  [[nodiscard]] int key_width() const noexcept { return key_width_; }

  [[nodiscard]] const TernaryTableStats& stats() const noexcept { return stats_; }
  void reset_stats() noexcept { stats_ = {}; }

 private:
  /// Entries sharing one exact first key, in lookup order.
  using Bucket = std::vector<Entry>;

  /// Wildcard entries sharing one mask vector AND one masked key: they all
  /// match the same packets, so the first (in lookup order) wins for all.
  struct Group {
    Fields key{};            ///< value & mask, per component
    std::uint32_t hash = 0;  ///< hash_key(key)
    Bucket entries;          ///< lookup order; empty = on the free list
  };

  /// Open-addressing slot of a tuple's hash index: the group index + 1 (0 =
  /// empty) and the group's key hash, which filters probes and gives the
  /// home slot without touching the group.
  struct Slot {
    std::uint32_t group = 0;
    std::uint32_t hash = 0;
  };

  /// All wildcard entries with one mask vector. Group indices are stable
  /// (locators hold them); emptied groups go on the free list.
  struct Tuple {
    Fields mask{};
    /// The components with a nonzero mask, the only ones hashed and compared.
    std::array<std::uint8_t, MaxWidth> keyed{};
    std::uint8_t keyed_count = 0;
    std::vector<Group> groups;
    std::vector<std::uint32_t> free_groups;
    std::vector<Slot> slots;  ///< power-of-two size, at most half full
    /// Upper bound on the entries' priorities: raised by inserts, reset when
    /// the tuple empties, never lowered by an erase (that would need an
    /// ordered priority index). A stale bound only costs a wasted probe.
    int max_priority = 0;

    /// Groups holding entries; the tuple is empty when this is 0.
    [[nodiscard]] std::size_t live_groups() const noexcept {
      return groups.size() - free_groups.size();
    }
  };

  /// A non-empty tuple in probe order, with its max-priority bound inline.
  struct TupleRef {
    int max_priority = 0;
    std::uint32_t tuple = 0;
  };

  static constexpr std::uint32_t kNone = 0xffffffffu;  ///< no tuple / no group

  struct Locator {
    Word first_key = 0;           ///< exact-first-key entries
    std::uint32_t tuple = kNone;  ///< wildcard entries: tuple and group
    std::uint32_t group = 0;
  };

  /// Exact first keys below this bound live in a direct-indexed bucket
  /// array (program ids and ports are small dense integers — the common
  /// case — and a lookup then costs one bounds check instead of a hash
  /// probe); larger keys fall back to the hash map.
  static constexpr Word kDenseFirstKeyLimit = 4096;

  [[nodiscard]] Bucket& bucket_for_insert(Word first_key) {
    if (first_key < kDenseFirstKeyLimit) {
      // Growing moves the Bucket objects but not their heap-allocated entry
      // storage; the insert invalidates every outstanding span anyway.
      if (dense_.size() <= first_key) dense_.resize(first_key + 1u);
      return dense_[first_key];
    }
    return indexed_[first_key];
  }

  /// Keep the bucket sorted by (priority desc, handle asc): handles grow
  /// monotonically, so inserting after every entry of priority >= p
  /// preserves insertion order within a priority level.
  static void insert_sorted(Bucket& bucket, Entry entry) {
    const int priority = entry.priority;
    const auto pos = std::partition_point(
        bucket.begin(), bucket.end(),
        [priority](const Entry& e) { return e.priority >= priority; });
    bucket.insert(pos, std::move(entry));
  }

  void erase_from(Bucket& bucket, EntryHandle handle) {
    const auto it = std::find_if(bucket.begin(), bucket.end(), [&](const Entry& e) {
      ++stats_.erase_probes;
      return e.handle == handle;
    });
    assert(it != bucket.end());
    bucket.erase(it);
  }

  // --- tuple space --------------------------------------------------------

  /// Hash of a masked key over the tuple's keyed components (the others
  /// are masked to 0 and add nothing).
  [[nodiscard]] static std::uint32_t hash_key(const Tuple& tuple, const Fields& key) noexcept {
    std::uint64_t h = 0x9e3779b97f4a7c15ull;
    for (std::uint8_t j = 0; j < tuple.keyed_count; ++j) {
      h = (h ^ key[tuple.keyed[j]]) * 0xff51afd7ed558ccdull;
      h ^= h >> 29;
    }
    return static_cast<std::uint32_t>(h ^ (h >> 32));
  }

  [[nodiscard]] static bool same_key(const Tuple& tuple, const Fields& a,
                                     const Fields& b) noexcept {
    for (std::uint8_t j = 0; j < tuple.keyed_count; ++j) {
      if (a[tuple.keyed[j]] != b[tuple.keyed[j]]) return false;
    }
    return true;
  }

  /// Index of the group holding masked key `key` in `tuple`, or kNone.
  [[nodiscard]] static std::uint32_t find_group(const Tuple& tuple, const Fields& key,
                                                std::uint32_t hash) noexcept {
    if (tuple.slots.empty()) return kNone;
    const std::size_t wrap = tuple.slots.size() - 1;
    for (std::size_t s = hash & wrap;; s = (s + 1) & wrap) {
      const Slot& slot = tuple.slots[s];
      if (slot.group == 0) return kNone;
      if (slot.hash == hash && same_key(tuple, tuple.groups[slot.group - 1].key, key)) {
        return slot.group - 1;
      }
    }
  }

  /// The tuple's best entry matching `fields`, or nullptr: one hash probe.
  [[nodiscard]] static const Entry* find_in_tuple(const Tuple& tuple,
                                                  const Fields& fields) noexcept {
    Fields key{};
    for (std::uint8_t j = 0; j < tuple.keyed_count; ++j) {
      const std::uint8_t c = tuple.keyed[j];
      key[c] = fields[c] & tuple.mask[c];
    }
    const std::uint32_t g = find_group(tuple, key, hash_key(tuple, key));
    return g == kNone ? nullptr : &tuple.groups[g].entries.front();
  }

  static void place_slot(std::vector<Slot>& slots, Slot slot) noexcept {
    const std::size_t wrap = slots.size() - 1;
    std::size_t s = slot.hash & wrap;
    while (slots[s].group != 0) s = (s + 1) & wrap;
    slots[s] = slot;
  }

  /// Backward-shift deletion of group `group`'s slot (linear probing keeps
  /// no tombstones, so probe chains never degrade under churn).
  static void remove_slot(Tuple& tuple, std::uint32_t group) noexcept {
    auto& slots = tuple.slots;
    const std::size_t wrap = slots.size() - 1;
    std::size_t hole = tuple.groups[group].hash & wrap;
    while (slots[hole].group != group + 1) hole = (hole + 1) & wrap;
    for (std::size_t s = (hole + 1) & wrap; slots[s].group != 0; s = (s + 1) & wrap) {
      // A slot stays put if its home lies cyclically in (hole, s].
      const std::size_t home = slots[s].hash & wrap;
      const bool stays = hole <= s ? (hole < home && home <= s) : (hole < home || home <= s);
      if (!stays) {
        slots[hole] = slots[s];
        hole = s;
      }
    }
    slots[hole] = Slot{};
  }

  Locator insert_wildcard(Entry entry) {
    Fields mask{};
    for (std::size_t c = 0; c < mask.size(); ++c) mask[c] = entry.keys[c].mask;
    std::uint32_t t = 0;
    while (t < tuples_.size() && tuples_[t].mask != mask) ++t;
    if (t == tuples_.size()) {
      Tuple fresh;
      fresh.mask = mask;
      for (std::size_t c = 0; c < mask.size(); ++c) {
        if (mask[c] != 0) fresh.keyed[fresh.keyed_count++] = static_cast<std::uint8_t>(c);
      }
      tuples_.push_back(std::move(fresh));
    }
    Tuple& tuple = tuples_[t];
    const bool was_empty = tuple.live_groups() == 0;

    Fields key{};
    for (std::size_t c = 0; c < key.size(); ++c) key[c] = entry.keys[c].value & mask[c];
    const std::uint32_t hash = hash_key(tuple, key);
    std::uint32_t g = find_group(tuple, key, hash);
    if (g == kNone) {
      if ((tuple.live_groups() + 1) * 2 > tuple.slots.size()) {
        // Double the index and re-place every live group (amortized O(1)).
        std::vector<Slot> grown(std::max<std::size_t>(8, tuple.slots.size() * 2));
        for (const Slot& slot : tuple.slots) {
          if (slot.group != 0) place_slot(grown, slot);
        }
        tuple.slots = std::move(grown);
      }
      if (tuple.free_groups.empty()) {
        g = static_cast<std::uint32_t>(tuple.groups.size());
        tuple.groups.emplace_back();
      } else {
        g = tuple.free_groups.back();
        tuple.free_groups.pop_back();
      }
      tuple.groups[g].key = key;
      tuple.groups[g].hash = hash;
      place_slot(tuple.slots, Slot{g + 1, hash});
    }
    const int priority = entry.priority;
    insert_sorted(tuple.groups[g].entries, std::move(entry));
    if (was_empty || priority > tuple.max_priority) {
      tuple.max_priority = priority;
      reorder(t);
    }
    return Locator{0, t, g};
  }

  void erase_wildcard(const Locator& where, EntryHandle handle) {
    Tuple& tuple = tuples_[where.tuple];
    Group& group = tuple.groups[where.group];
    erase_from(group.entries, handle);
    if (group.entries.empty()) {
      remove_slot(tuple, where.group);
      tuple.free_groups.push_back(where.group);
      if (tuple.live_groups() == 0) reorder(where.tuple);
    }
  }

  /// Re-place tuple `t` in the probe order after its max-priority bound
  /// rose or it emptied or filled: O(tuples), the number of distinct mask
  /// vectors, independent of the number of entries.
  void reorder(std::uint32_t t) {
    const auto at = std::find_if(order_.begin(), order_.end(),
                                 [t](const TupleRef& ref) { return ref.tuple == t; });
    if (at != order_.end()) order_.erase(at);
    if (tuples_[t].live_groups() == 0) return;
    const TupleRef ref{tuples_[t].max_priority, t};
    order_.insert(std::upper_bound(order_.begin(), order_.end(), ref,
                                   [](const TupleRef& a, const TupleRef& b) {
                                     return a.max_priority > b.max_priority;
                                   }),
                  ref);
  }

  int key_width_;
  std::size_t capacity_;
  std::size_t size_ = 0;
  std::vector<Bucket> dense_;  ///< buckets for first keys < kDenseFirstKeyLimit
  std::unordered_map<Word, Bucket> indexed_;  ///< buckets for large first keys
  std::vector<Tuple> tuples_;    ///< one per mask vector ever used (stable indices)
  std::vector<TupleRef> order_;  ///< non-empty tuples, max priority descending
  std::unordered_map<EntryHandle, Locator> locator_;
  EntryHandle next_handle_ = 1;
  TernaryTableStats stats_;
  WriteCounterLink writes_;
};

}  // namespace p4runpro::rmt
