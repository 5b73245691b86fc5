// PeerTable: per-peer observer state addressed by PeerId in O(1).
//
// PeerIds are dense (assigned 1, 2, ... and never recycled), so an
// id-indexed slot array maps each id to a row. Rows are stored compactly
// in first-touch order, and only for ids actually touched: a table costs
// four bytes per id below the largest one seen plus one row per peer it
// holds. Iteration runs in ascending id order — the order the std::map it
// replaced walked in, which callers that sum doubles rely on.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <utility>
#include <vector>

#include "peer/types.h"

namespace swarmlab::instrument {

template <class T>
class PeerTable {
  template <bool Const>
  class Iter {
    using Table = std::conditional_t<Const, const PeerTable, PeerTable>;
    using Row = std::conditional_t<Const, const T&, T&>;

   public:
    using value_type = std::pair<peer::PeerId, Row>;
    using difference_type = std::ptrdiff_t;

    Iter(Table* table, std::size_t id) : table_(table), id_(id) { skip(); }

    value_type operator*() const {
      return {static_cast<peer::PeerId>(id_),
              table_->rows_[table_->slot_[id_] - 1]};
    }
    Iter& operator++() {
      ++id_;
      skip();
      return *this;
    }
    bool operator==(const Iter& other) const { return id_ == other.id_; }

   private:
    void skip() {
      while (id_ < table_->slot_.size() && table_->slot_[id_] == 0) ++id_;
    }

    Table* table_;
    std::size_t id_;
  };

 public:
  using iterator = Iter<false>;
  using const_iterator = Iter<true>;

  /// The row for `id`, default-constructed on first touch. Growing the
  /// table may move rows: do not hold a reference across a first touch.
  T& operator[](peer::PeerId id) {
    if (T* row = find(id)) return *row;
    return insert(id);
  }

  [[nodiscard]] T* find(peer::PeerId id) {
    const std::uint32_t slot = id < slot_.size() ? slot_[id] : 0;
    return slot != 0 ? &rows_[slot - 1] : nullptr;
  }
  [[nodiscard]] const T* find(peer::PeerId id) const {
    return const_cast<PeerTable*>(this)->find(id);
  }
  /// Throws std::out_of_range for an id never touched.
  [[nodiscard]] const T& at(peer::PeerId id) const {
    if (const T* row = find(id)) return *row;
    throw std::out_of_range("PeerTable::at: unknown peer");
  }

  [[nodiscard]] std::size_t size() const { return rows_.size(); }
  [[nodiscard]] bool empty() const { return rows_.empty(); }

  /// Rows in first-touch order, for walks whose order does not matter.
  [[nodiscard]] std::vector<T>& rows() { return rows_; }

  [[nodiscard]] iterator begin() { return iterator(this, 0); }
  [[nodiscard]] iterator end() { return iterator(this, slot_.size()); }
  [[nodiscard]] const_iterator begin() const {
    return const_iterator(this, 0);
  }
  [[nodiscard]] const_iterator end() const {
    return const_iterator(this, slot_.size());
  }

 private:
  T& insert(peer::PeerId id) {
    if (id >= slot_.size()) slot_.resize(std::size_t{id} + 1, 0);
    rows_.emplace_back();
    slot_[id] = static_cast<std::uint32_t>(rows_.size());
    return rows_.back();
  }

  std::vector<std::uint32_t> slot_;  // id -> row index + 1; 0 = absent
  std::vector<T> rows_;
};

}  // namespace swarmlab::instrument
